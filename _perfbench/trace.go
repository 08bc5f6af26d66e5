package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/similarity"
)

// span is one timed interval of a traced run. Spans of one engine run or
// service job share a Trace id; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. Spans
// are added from one goroutine, after the measured work.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mark is one engine progress event or checkpoint, stamped when the
// benchmark saw it: at the engine.Config Listener/Checkpoint hook in a
// batch run, on arrival over the job's event stream in the service.
type mark struct {
	at         time.Time
	checkpoint bool
	phase      string
	detail     string
}

// phase is one named interval between two marks.
type phase struct {
	name       string
	start, end time.Time
}

// cutPhases names the intervals between consecutive marks after start
// (the engine.Run call, or the job's "running" event). Each interval is
// named by the mark that closes it:
//
//	first blocking event      feature.extractor  (Run start: extractor build)
//	second blocking event     blocker            (rule learning and application)
//	checkpoint                checkpoint         (the hook; runsvc journals here)
//	first "iteration N over"  feature.vectors    (C's feature vectors)
//	"iteration N done"        matcher
//	estimation event          estimator
//	reduction event           locator
//
// Any other interval (the engine's own bookkeeping between phases, later
// iterations' set-up) stays unnamed and counts as untraced. runsvc's
// "compact" and "resume" progress events are skipped: the journal work
// they report belongs to the checkpoint that follows them.
func cutPhases(start time.Time, marks []mark) []phase {
	var out []phase
	prev := start
	blocking, matching := 0, 0
	for _, m := range marks {
		name := ""
		switch {
		case m.checkpoint:
			name = "checkpoint"
		case m.phase == "blocking":
			blocking++
			name = "blocker"
			if blocking == 1 {
				name = "feature.extractor"
			}
		case m.phase == "matching" && strings.Contains(m.detail, " done"):
			name = "matcher"
		case m.phase == "matching":
			matching++
			if matching == 1 {
				name = "feature.vectors"
			}
		case m.phase == "estimation":
			name = "estimator"
		case m.phase == "reduction":
			name = "locator"
		default:
			continue
		}
		if name != "" {
			out = append(out, phase{name: name, start: prev, end: m.at})
		}
		prev = m.at
	}
	return out
}

// phaseSums totals the phase durations by name, in seconds.
func phaseSums(ps []phase) map[string]float64 {
	sums := map[string]float64{}
	for _, p := range ps {
		sums[p.name] += p.end.Sub(p.start).Seconds()
	}
	return sums
}

// probeInputs is one finished run whose dataset, result and labeled set
// the layer probes reuse.
type probeInputs struct {
	ds     *record.Dataset
	res    *engine.Result
	runner *crowd.Runner
}

// probe sizes: enough calls that each timed pass takes tens of
// milliseconds on one core.
const (
	jwProbeCalls     = 100_000
	verifyProbePairs = 50_000
	scoreProbePairs  = 50_000
	probePasses      = 3
)

// runProbes calls the similarity, shard, feature and forest entry points
// directly on a finished run's inputs and reports their per-call cost.
// Each probe repeats probePasses times and reports the median pass.
func runProbes(tr *tracer, seed int64, in probeInputs, rep *report) {
	rng := rand.New(rand.NewSource(seed))
	timed := func(name string, f func()) float64 {
		var secs []float64
		for i := 0; i < probePasses; i++ {
			t0 := time.Now()
			f()
			t1 := time.Now()
			tr.add("probes", 0, name, t0, t1)
			secs = append(secs, t1.Sub(t0).Seconds())
		}
		return median(secs)
	}

	t0 := time.Now()
	ex := feature.NewExtractor(in.ds)
	tr.add("probes", 0, "feature.NewExtractor", t0, time.Now())

	// similarity: JaroWinklerProfiles over sampled profile pairs of the
	// workload's Jaro-Winkler features, skipping missing values as the
	// feature wrapper does.
	type jwPair struct{ a, b *similarity.Profile }
	var jw []jwPair
	var jwFeatures []int
	for i, f := range ex.Features() {
		if f.Kind == "jaro_winkler" {
			jwFeatures = append(jwFeatures, i)
		}
	}
	for tries := 0; len(jwFeatures) > 0 && len(jw) < jwProbeCalls && tries < 4*jwProbeCalls; tries++ {
		pa, pb := ex.Profiles(jwFeatures[rng.Intn(len(jwFeatures))])
		a, b := pa[rng.Intn(len(pa))], pb[rng.Intn(len(pb))]
		if a.Norm != "" && b.Norm != "" {
			jw = append(jw, jwPair{a, b})
		}
	}
	scratch := similarity.NewScratch()
	s := timed("similarity.JaroWinklerProfiles", func() {
		for _, p := range jw {
			probeSink += similarity.JaroWinklerProfiles(p.a, p.b, scratch)
		}
	})
	rep.set("similarity.jw_ns_per_call", 1e9*ratio(s, float64(len(jw))), "ns")

	// shard: the blocking rules the run selected, verified on sampled
	// pairs of AxB.
	v := shard.NewVerifier(ex, in.res.Blocking.Selected)
	sample := make([]record.Pair, verifyProbePairs)
	for i := range sample {
		sample[i] = record.P(rng.Intn(in.ds.A.Len()), rng.Intn(in.ds.B.Len()))
	}
	survivors := 0
	s = timed("shard.Verifier.Survives", func() {
		survivors = 0
		for _, p := range sample {
			if v.Survives(p) {
				survivors++
			}
		}
	})
	rep.set("shard.verify_ns_per_pair", 1e9*s/float64(len(sample)), "ns")
	rep.set("shard.survive_ratio", float64(survivors)/float64(len(sample)), "ratio")

	// forest: retrain on the run's labeled set, then score a sample of
	// the umbrella set C with the run's iteration-1 matcher.
	if in.res.Model != nil {
		labeled := in.runner.AllLabeled()
		X := make([][]float64, len(labeled))
		y := make([]bool, len(labeled))
		for i, l := range labeled {
			X[i], y[i] = ex.Vector(l.Pair), l.Match
		}
		cfg := in.res.Model.TrainConfig()
		rep.set("forest.train_s", timed("forest.Train", func() { forest.Train(X, y, cfg) }), "s")

		C := in.res.Blocking.Candidates
		if len(C) > scoreProbePairs {
			picked := make([]record.Pair, scoreProbePairs)
			for i := range picked {
				picked[i] = C[rng.Intn(len(C))]
			}
			C = picked
		}
		V := ex.Vectors(C)
		s = timed("forest.Confidences", func() {
			for _, c := range in.res.Model.Confidences(V) {
				probeSink += c
			}
		})
		rep.set("forest.score_ns_per_pair", 1e9*ratio(s, float64(len(V))), "ns")
	}
}

// probeSink keeps the probes' results live so the compiler cannot drop
// the calls being timed.
var probeSink float64

// layerCounts sets the per-layer counts that come straight from engine
// results, averaged over the given results (one per distinct input).
func layerCounts(rep *report, results []*engine.Result) {
	var umbrella, rules, blockerPairs, alRounds, iterations, estPairs, difficult float64
	for _, res := range results {
		umbrella += ratio(float64(len(res.Blocking.Candidates)), float64(res.Blocking.CartesianSize))
		rules += float64(len(res.Blocking.Selected))
		blockerPairs += float64(res.BlockingAccounting.Pairs)
		iterations += float64(res.Iterations)
		for _, t := range res.ConfidenceTraces {
			alRounds += float64(t.Iterations)
		}
		for _, p := range res.Phases {
			if strings.HasPrefix(p.Name, "Estimation") {
				estPairs += float64(p.PairsLabeled)
			}
		}
		for _, d := range res.DifficultSets {
			difficult += float64(len(d))
		}
	}
	n := float64(len(results))
	rep.set("blocker.umbrella_ratio", umbrella/n, "ratio")
	rep.set("blocker.rules", rules/n, "count")
	rep.set("blocker.crowd_pairs", blockerPairs/n, "pairs")
	rep.set("matcher.al_rounds", alRounds/n, "count")
	rep.set("engine.iterations", iterations/n, "count")
	rep.set("estimator.crowd_pairs", estPairs/n, "pairs")
	rep.set("locator.difficult_pairs", difficult/n, "pairs")
}
