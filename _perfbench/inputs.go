package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/runsvc"
)

// batchMetas are the batch workloads' inputs, written as the runsvc job
// description that produces them (runsvc.BuildSpec maps a Meta to the
// dataset, the simulated crowd and the engine configuration).
//
// citations: 261x6426 = 1,677,186 pairs, above t_B, so blocking runs and
// dominates wall time. restaurants: 533x331 = 176,423 pairs, below the
// paper's t_B, so blocking is skipped and every pair is featurized,
// matched, estimated and reduced.
var batchMetas = map[string]runsvc.Meta{
	"citations":   {Profile: "citations", Scale: 0.1, ErrorRate: 0.05, Seed: 1, TB: 78519},
	"restaurants": {Profile: "restaurants", ErrorRate: 0.05, Seed: 1},
}

// buildBatch builds a batch workload's inputs for the given seed: the
// Meta's dataset with its letters relabeled by the seed.
func buildBatch(name string, seed int64) (runsvc.Spec, error) {
	spec, err := runsvc.BuildSpec(batchMetas[name])
	if err != nil {
		return spec, err
	}
	relabel(spec.Dataset, seed)
	return spec, nil
}

// relabel applies a seeded permutation of the 26 letters (the same one to
// lower and upper case) to every value of both tables. Digits, spaces and
// punctuation are left alone. Every similarity measure in the feature
// library depends on characters only through equality and on tokens only
// through identity, so the relabeled dataset has exactly the feature
// vectors of the original and every seed runs the same pipeline trajectory
// over different bytes. A full re-draw of the dataset instead moves
// citations' umbrella set between about 600 and 300,000 pairs and its
// wall time by up to 7x, so no run length gives a steady figure.
func relabel(ds *record.Dataset, seed int64) {
	perm := rand.New(rand.NewSource(seed)).Perm(26)
	mapRune := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z':
			return 'a' + rune(perm[r-'a'])
		case r >= 'A' && r <= 'Z':
			return 'A' + rune(perm[r-'A'])
		}
		return r
	}
	for _, t := range []*record.Table{ds.A, ds.B} {
		for _, row := range t.Rows {
			for j, v := range row {
				row[j] = strings.Map(mapRune, v)
			}
		}
	}
}

// outcome is what one engine run returned, reduced to the values the
// benchmark checks. Two runs of the same inputs must give equal outcomes.
type outcome struct {
	MatchesSHA256 string  `json:"matches_sha256"`
	Matches       int     `json:"matches"`
	Answers       int     `json:"answers"`
	Pairs         int     `json:"pairs"`
	CostUSD       float64 `json:"cost_usd"`
	HITs          int     `json:"hits"`
	StopReason    string  `json:"stop_reason"`
	F1True        float64 `json:"f1_true"`
	Umbrella      int     `json:"umbrella"`
	ALRounds      int     `json:"al_rounds"`
	Iterations    int     `json:"iterations"`
}

func outcomeOf(res *engine.Result) outcome {
	ms := append([]record.Pair(nil), res.Matches...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Less(ms[j]) })
	h := sha256.New()
	for _, p := range ms {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:4], uint32(p.A))
		binary.LittleEndian.PutUint32(b[4:], uint32(p.B))
		h.Write(b[:])
	}
	o := outcome{
		MatchesSHA256: hex.EncodeToString(h.Sum(nil)),
		Matches:       len(ms),
		Answers:       res.Accounting.Answers,
		Pairs:         res.Accounting.Pairs,
		CostUSD:       res.Accounting.Cost,
		HITs:          res.Accounting.HITs,
		StopReason:    res.StopReason,
		F1True:        res.True.F1,
		Iterations:    res.Iterations,
	}
	if res.Blocking != nil {
		o.Umbrella = len(res.Blocking.Candidates)
	}
	for _, tr := range res.ConfidenceTraces {
		o.ALRounds += tr.Iterations
	}
	return o
}

// referencePath is reference.json relative to the repository root.
const referencePath = "_perfbench/reference.json"

// referenceJSON holds each batch workload's outcome on its base inputs
// (no relabeling), recorded with --write-reference. Relabeling preserves
// every feature value, so every seed must reproduce it exactly.
//
//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]outcome, error) {
	var refs map[string]outcome
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// writeReference runs each batch workload once on its base inputs and
// records the outcomes.
func writeReference(path string) error {
	refs := map[string]outcome{}
	for name, meta := range batchMetas {
		spec, err := runsvc.BuildSpec(meta)
		if err != nil {
			return err
		}
		res, err := engine.Run(spec.Dataset, spec.Crowd, spec.Config)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		refs[name] = outcomeOf(res)
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timedCrowd counts the answers of the crowd it wraps and sums the time
// spent producing them. The engine asks one question at a time, so plain
// fields suffice.
type timedCrowd struct {
	inner   crowd.Crowd
	answers int
	busyNS  int64
}

func (c *timedCrowd) Answer(p record.Pair) bool {
	start := time.Now()
	a := c.inner.Answer(p)
	c.busyNS += time.Since(start).Nanoseconds()
	c.answers++
	return a
}
