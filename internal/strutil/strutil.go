// Package strutil provides the string primitives the similarity and feature
// layers build on: normalization, tokenization, and q-gram generation.
package strutil

import (
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Normalize lowercases s, collapses runs of whitespace, and trims the ends.
// All similarity functions operate on normalized strings so that case and
// spacing differences do not masquerade as real differences.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	started := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			space = started
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
		started = true
	}
	return b.String()
}

// Words splits s into lowercase alphanumeric tokens, treating every other
// rune as a separator. "HyperX 4GB Kit (2 x 2GB)" -> ["hyperx" "4gb" "kit"
// "2" "x" "2gb"].
func Words(s string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// QGrams returns the padded q-grams of s (q >= 1). The string is padded with
// q-1 leading and trailing '#' runes so that boundary characters contribute
// as many grams as interior ones. An empty string yields no grams.
func QGrams(s string, q int) []string {
	if s == "" || q <= 0 {
		return nil
	}
	if q == 1 {
		out := make([]string, 0, len(s))
		for _, r := range s {
			out = append(out, string(r))
		}
		return out
	}
	pad := strings.Repeat("#", q-1)
	rs := []rune(pad + strings.ToLower(s) + pad)
	out := make([]string, 0, len(rs)-q+1)
	for i := 0; i+q <= len(rs); i++ {
		out = append(out, string(rs[i:i+q]))
	}
	return out
}

// TokenSet deduplicates a token slice into a set.
func TokenSet(toks []string) map[string]struct{} {
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// TokenCounts returns the multiset of tokens as a frequency map.
func TokenCounts(toks []string) map[string]int {
	counts := make(map[string]int, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	return counts
}

// SortedSet returns the distinct tokens in sorted order: the sorted
// materialization of TokenSet.
func SortedSet(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	copy(out, toks)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// ParseNumeric parses s as a float after trimming spaces, a leading '$',
// and thousands separators — the exact cleaning IsNumericString applies.
// The second return is false for missing or unparseable values.
func ParseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if !IsNumericString(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// CommonPrefixLen returns the length (in runes) of the longest common prefix
// of a and b, capped at max (pass a negative max for no cap). Used by
// Jaro-Winkler.
func CommonPrefixLen(a, b string, max int) int {
	ra, rb := []rune(a), []rune(b)
	n := 0
	for n < len(ra) && n < len(rb) && ra[n] == rb[n] {
		n++
		if max >= 0 && n >= max {
			return max
		}
	}
	return n
}

// IsNumericString reports whether s looks like a number (optionally signed,
// with at most one decimal point), after trimming spaces, '$' and ','.
func IsNumericString(s string) bool {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return false
	}
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	dot := false
	digits := 0
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return digits > 0
}
