package shard

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// leRule builds a single-predicate sim(f) ≤ θ rule.
func leRule(f int, theta float64) tree.Rule {
	return tree.Rule{Preds: []tree.Predicate{{Feature: f, Op: tree.LE, Threshold: theta}}}
}

// testJob builds the shared fixture: a small Restaurants dataset, its
// extractor, an indexable anchor, rules, and the matching JobSpec.
func testJob(t *testing.T, k int) (spec JobSpec, ex *feature.Extractor, rules []tree.Rule) {
	t.Helper()
	const scale = 0.3
	ds, err := datagen.DatasetFor("restaurants", scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex = feature.NewExtractor(ds)
	f := featureByKind(ex, "jaccard_w")
	if f < 0 {
		t.Fatal("no jaccard_w feature")
	}
	rules = []tree.Rule{leRule(f, 0.3)}
	spec = JobSpec{Job: "test-job", Dataset: "restaurants", Scale: scale,
		Shards: k, Feature: f, Theta: 0.3, Rules: rules}
	return spec, ex, rules
}

// localBaseline computes the expected survivor stream through the local
// executor at the given K.
func localBaseline(t *testing.T, spec JobSpec, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	t.Helper()
	profA, profB := ex.Profiles(spec.Feature)
	group := BuildGroup(mustKind(t, ex, spec.Feature), profB, spec.Shards)
	exec := NewLocalExecutor(ex, group, profA, rules, spec.Theta)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	var out []record.Pair
	per := make([][]record.Pair, spec.Shards)
	filled := 0
	c := &Coordinator{Workers: 2}
	err := c.Run(tasks, exec, func(_ int, pairs []record.Pair) {
		per[filled] = pairs
		filled++
		if filled == spec.Shards {
			out = append(out, MergePairs(nil, per)...)
			filled = 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustKind(t *testing.T, ex *feature.Extractor, f int) simindex.Kind {
	t.Helper()
	kind, ok := simindex.KindOf(ex.Features()[f].Kind)
	if !ok {
		t.Fatalf("feature %d not indexable", f)
	}
	return kind
}

// TestWorkerHTTPRoundTrip pins the full remote protocol: a fresh worker
// answers 412, the executor lazy-loads the job, probes flow, and the
// coordinator's merged output is byte-identical to the local executor's.
func TestWorkerHTTPRoundTrip(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)

	w := NewWorker()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	rexec := NewRemoteExecutor([]string{srv.URL}, spec, srv.Client())
	profA, _ := ex.Profiles(spec.Feature)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	var got []record.Pair
	per := make([][]record.Pair, spec.Shards)
	filled := 0
	c := &Coordinator{Workers: 3}
	err := c.Run(tasks, rexec, func(_ int, pairs []record.Pair) {
		per[filled] = pairs
		filled++
		if filled == spec.Shards {
			got = append(got, MergePairs(nil, per)...)
			filled = 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote emitted %d pairs, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: remote %v, local %v", i, got[i], want[i])
		}
	}
	if w.Stats().JobsLoaded.Load() != 1 {
		t.Errorf("worker loaded %d jobs, want 1 (lazy-load once)", w.Stats().JobsLoaded.Load())
	}
	if w.Stats().Probes.Load() != int64(len(tasks)) {
		t.Errorf("worker served %d probes, want %d", w.Stats().Probes.Load(), len(tasks))
	}
}

// TestWorkerLoadIdempotent pins load semantics: same spec re-loads are
// no-ops, a conflicting spec for the same job id is rejected.
func TestWorkerLoadIdempotent(t *testing.T) {
	spec, _, _ := testJob(t, 2)
	w := NewWorker()
	if err := w.Load(spec); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(spec); err != nil {
		t.Fatalf("idempotent re-load failed: %v", err)
	}
	if n := w.Stats().JobsLoaded.Load(); n != 1 {
		t.Errorf("loads counted %d, want 1", n)
	}
	conflict := spec
	conflict.Shards++
	if err := w.Load(conflict); err == nil {
		t.Error("conflicting spec for the same job id should be rejected")
	}
}

// TestWorkerUnknownJob pins the 412 protocol at both layers: Probe returns
// ErrUnknownJob, and the HTTP handler maps it to 412.
func TestWorkerUnknownJob(t *testing.T) {
	w := NewWorker()
	if _, err := w.Probe(Task{Job: "nope"}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Probe of unknown job: %v, want ErrUnknownJob", err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/shard/probe", "application/json",
		strings.NewReader(`{"job":"nope","shards":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status %d, want 412", resp.StatusCode)
	}
}

// TestRemoteExecutorFailover pins failover routing: with one dead endpoint
// and one live worker, the coordinator's retries land every task and the
// output stays identical to the local baseline.
func TestRemoteExecutorFailover(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)

	w := NewWorker()
	live := httptest.NewServer(w.Handler())
	defer live.Close()
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		http.Error(rw, "crashed", http.StatusInternalServerError)
	}))
	defer dead.Close()

	var stats Stats
	rexec := NewRemoteExecutor([]string{dead.URL, live.URL}, spec, live.Client())
	profA, _ := ex.Profiles(spec.Feature)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	var got []record.Pair
	per := make([][]record.Pair, spec.Shards)
	filled := 0
	c := &Coordinator{Workers: 2, MaxAttempts: 3, Stats: &stats}
	err := c.Run(tasks, rexec, func(_ int, pairs []record.Pair) {
		per[filled] = pairs
		filled++
		if filled == spec.Shards {
			got = append(got, MergePairs(nil, per)...)
			filled = 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("failover emitted %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v, want %v", i, got[i], want[i])
		}
	}
	if deadHits.Load() == 0 {
		t.Error("dead endpoint was never tried — routing is not alternating")
	}
	if stats.Retried.Load() == 0 {
		t.Error("no retries counted despite a dead endpoint")
	}
}

// TestRemoteExecutorRestartDuringLoad pins the handshake's failure mode:
// an endpoint that accepts the job spec and still answers 412 to the very
// next probe has restarted between the two requests. That must fail the
// attempt over to the next endpoint like any transient fault, for single
// and batched probes alike, never fail the run on the 4xx.
func TestRemoteExecutorRestartDuringLoad(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)
	live := httptest.NewServer(NewWorker().Handler())
	defer live.Close()
	amnesiac := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/load" {
			return // 200: spec accepted, then forgotten
		}
		http.Error(rw, "shard: unknown job", http.StatusPreconditionFailed)
	}))
	defer amnesiac.Close()
	profA, _ := ex.Profiles(spec.Feature)
	for _, batch := range []int{1, 4} {
		rexec := NewRemoteExecutor([]string{amnesiac.URL, live.URL}, spec, live.Client())
		var got []record.Pair
		per := make([][]record.Pair, spec.Shards)
		filled := 0
		c := &Coordinator{Workers: 2, MaxAttempts: 3, Batch: batch}
		err := c.Run(BlockTasks(spec.Job, len(profA), spec.Shards), rexec, func(_ int, pairs []record.Pair) {
			per[filled] = pairs
			filled++
			if filled == spec.Shards {
				got = append(got, MergePairs(nil, per)...)
				filled = 0
			}
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: emitted %d pairs, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: pair %d: %v, want %v", batch, i, got[i], want[i])
			}
		}
	}
}
