package simindex

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/similarity"
)

// vocab skews token frequencies so some tokens are common and some rare,
// like real attribute values.
var vocab = []string{
	"kingston", "hyperx", "corsair", "vengeance", "seagate", "barracuda",
	"western", "digital", "caviar", "blue", "memory", "kit", "ddr3", "4gb",
	"8gb", "1tb", "500gb", "drive", "desktop", "module", "sata", "internal",
	"performance", "high", "the", "for", "x",
}

// genValues builds n random attribute values (some empty, some punctuation-
// only so the token set is empty while the value is present).
func genValues(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.05:
			out[i] = "" // missing
		case r < 0.10:
			out[i] = "--- !!!" // present, token-less
		default:
			k := 1 + rng.Intn(7)
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += vocab[rng.Intn(len(vocab))]
			}
			out[i] = s
		}
	}
	return out
}

// buildProfiles profiles the columns with one shared vocabulary, as the
// feature extractor does for an attribute's two tables: probes and indexed
// rows must come from one call for their token ids to compare.
func buildProfiles(corpus *similarity.Corpus, cols ...[]string) [][]*similarity.Profile {
	return similarity.NewProfiles(similarity.AllFields, corpus, cols...)
}

// exact computes the measure the index accelerates, mirroring the feature
// layer's missing-value gate (Norm == "" on either side → Missing = −1).
func exact(kind Kind, corpus *similarity.Corpus, a, b *similarity.Profile) float64 {
	if a.Norm == "" || b.Norm == "" {
		return -1
	}
	switch kind {
	case JaccardWords:
		return similarity.JaccardWordsProfiles(a, b)
	case JaccardQGrams:
		return similarity.JaccardQGramsProfiles(a, b)
	case OverlapWords:
		return similarity.OverlapWordsProfiles(a, b)
	case CosineTFIDF:
		return corpus.CosineProfiles(a, b)
	}
	panic("unknown kind")
}

// TestCandidatesComplete is the core guarantee: for every probe and every
// threshold, the candidate set contains every row whose exact similarity
// strictly exceeds θ.
func TestCandidatesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valsA := genValues(rng, 60)
	valsB := genValues(rng, 80)
	corpus := similarity.NewCorpus(append(append([]string{}, valsA...), valsB...))
	cols := buildProfiles(corpus, valsA, valsB)
	profA, profB := cols[0], cols[1]

	thetas := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.75, 0.9, 0.999, 1}
	for _, kind := range []Kind{JaccardWords, JaccardQGrams, OverlapWords, CosineTFIDF} {
		ix := Build(kind, profB)
		s := NewScratch()
		for _, theta := range thetas {
			for ai, pa := range profA {
				cands := ix.Candidates(pa, theta, s)
				inCand := map[int32]bool{}
				for _, r := range cands {
					inCand[r] = true
				}
				for bi, pb := range profB {
					if sim := exact(kind, corpus, pa, pb); sim > theta && !inCand[int32(bi)] {
						t.Fatalf("kind=%d θ=%g: probe %d (%q) misses row %d (%q) with sim %g",
							kind, theta, ai, valsA[ai], bi, valsB[bi], sim)
					}
				}
			}
		}
	}
}

// TestCandidatesSortedAndDeduped pins the output contract the blocker's
// deterministic emission relies on.
func TestCandidatesSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	valsB := genValues(rng, 100)
	cols := buildProfiles(nil, valsB, []string{"kingston hyperx memory kit ddr3"})
	profB, probe := cols[0], cols[1][0]
	ix := Build(JaccardWords, profB)
	s := NewScratch()
	cands := ix.Candidates(probe, 0, s)
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatalf("candidates not strictly ascending at %d: %v", i, cands)
		}
	}
}

// TestCandidatesPrune checks the filters actually prune: at a high
// threshold the candidate count must be well below "every row sharing a
// token" (otherwise the index is correct but useless).
func TestCandidatesPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	valsB := genValues(rng, 400)
	cols := buildProfiles(nil, valsB, []string{"kingston hyperx"})
	profB, probe := cols[0], cols[1][0]
	ix := Build(JaccardWords, profB)
	s := NewScratch()

	loose := len(ix.Candidates(probe, 0, s))
	tight := len(ix.Candidates(probe, 0.9, s))
	if loose == 0 {
		t.Fatal("probe found no rows at θ=0; vocabulary too sparse for the test")
	}
	if tight >= loose {
		t.Errorf("θ=0.9 candidates (%d) not fewer than θ=0 candidates (%d)", tight, loose)
	}
}

// TestMissingAndEmptyValues pins the sentinel semantics: missing values are
// never candidates and never probe anything; token-less values pair only
// with each other.
func TestMissingAndEmptyValues(t *testing.T) {
	vals := []string{"kingston kit", "", "!!!", "hyperx kit"}
	profs := buildProfiles(nil, vals)[0]
	ix := Build(JaccardWords, profs)
	s := NewScratch()

	if got := ix.Candidates(profs[1], 0, s); len(got) != 0 {
		t.Errorf("missing probe returned candidates %v", got)
	}
	got := ix.Candidates(profs[2], 0, s)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("token-less probe: got %v, want [2] (the other token-less row)", got)
	}
	// A tokenful probe must never see the missing row (1).
	for _, r := range ix.Candidates(profs[0], 0, s) {
		if r == 1 {
			t.Error("missing row returned as candidate")
		}
	}
}

// TestKindOf pins the measure-name mapping the blocker's planner uses.
func TestKindOf(t *testing.T) {
	for name, want := range map[string]Kind{
		"jaccard_w":  JaccardWords,
		"jaccard_3g": JaccardQGrams,
		"overlap_w":  OverlapWords,
		"tfidf_cos":  CosineTFIDF,
	} {
		got, ok := KindOf(name)
		if !ok || got != want {
			t.Errorf("KindOf(%q) = %v, %v", name, got, ok)
		}
	}
	for _, name := range []string{"edit", "jaro_winkler", "exact", "rel_diff", "monge_elkan", ""} {
		if _, ok := KindOf(name); ok {
			t.Errorf("KindOf(%q) should not be indexable", name)
		}
	}
}

// TestScratchEpochWrap exercises the epoch-wrap clearing path.
func TestScratchEpochWrap(t *testing.T) {
	cols := buildProfiles(nil, []string{"kingston kit", "kingston drive"}, []string{"kingston"})
	profs, probe := cols[0], cols[1][0]
	ix := Build(JaccardWords, profs)
	s := NewScratch()
	_ = ix.Candidates(probe, 0, s)
	s.epoch = 1<<31 - 2 // next reset wraps
	got := ix.Candidates(probe, 0, s)
	if len(got) != 2 {
		t.Fatalf("post-wrap candidates = %v, want both rows", got)
	}
}

func Example() {
	// Indexed rows and probes are profiled in one call so they share a
	// vocabulary.
	cols := similarity.NewProfiles(similarity.FieldWordSet, nil,
		[]string{"kingston hyperx 4gb kit", "seagate barracuda drive"},
		[]string{"kingston hyperx kit 8gb"})
	ix := Build(JaccardWords, cols[0])
	probe := cols[1][0]
	fmt.Println(ix.Candidates(probe, 0.4, NewScratch()))
	// Output: [0]
}
