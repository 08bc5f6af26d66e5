package main

import (
	"net/http"
	"testing"
	"time"
)

// TestExactCounts pins the counts later performance claims may rest on:
// crowd answers, crowd pairs, crowd cost, true F1, umbrella size, matcher
// active-learning rounds and engine iterations. Each batch workload runs
// once untraced and once traced, on inputs relabeled with different
// seeds, and both runs must reproduce the recorded reference exactly.
func TestExactCounts(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"citations", "restaurants"} {
		t.Run(name, func(t *testing.T) {
			for i, seed := range []int64{1, 2} {
				spec, err := buildBatch(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				traced := i == 1
				run, err := runBatchOnce(spec, traced)
				if err != nil {
					t.Fatal(err)
				}
				if got := outcomeOf(run.res); got != refs[name] {
					t.Errorf("seed %d traced=%v: outcome %+v, reference %+v", seed, traced, got, refs[name])
				}
				if traced && run.crowd.answers != run.res.Accounting.Answers {
					t.Errorf("crowd wrapper counted %d answers, runner accounted %d",
						run.crowd.answers, run.res.Accounting.Answers)
				}
			}
		})
	}
}

// TestServiceMatchesSerial submits one job of each kind, each twice, and
// checks every result against a serial engine.Run of the same Meta.
func TestServiceMatchesSerial(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	svc, err := startService(t.TempDir(), client)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	metas := serviceMetas()[:2]
	for i := 0; i < 2*len(metas); i++ {
		meta := metas[i%len(metas)]
		ref, err := serialReference(meta)
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.submit(client, i%len(metas), meta, true)
		if err != nil {
			t.Fatal(err)
		}
		job, ok := svc.mgr.Job(j.id)
		if !ok || j.state != "done" {
			t.Fatalf("job %s: state %s", j.id, j.state)
		}
		if got := outcomeOf(job.Result()); got != ref.out {
			t.Errorf("job %s: outcome %+v, serial %+v", j.id, got, ref.out)
		}
	}
}

// TestCutPhases checks the phase spans one engine iteration produces.
func TestCutPhases(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	marks := []mark{
		{at: at(10), phase: "blocking", detail: "scanning 100 pairs"},
		{at: at(30), phase: "blocking", detail: "2 rules applied"},
		{at: at(31), checkpoint: true, phase: "blocking"},
		{at: at(40), phase: "matching", detail: "iteration 1 over 5 candidates"},
		{at: at(60), phase: "matching", detail: "iteration 1 done: 2 predicted matches"},
		{at: at(61), phase: "compact", detail: "snapshot"},
		{at: at(62), checkpoint: true, phase: "iteration"},
		{at: at(70), phase: "estimation", detail: "P=1"},
		{at: at(71), checkpoint: true, phase: "estimation"},
		{at: at(80), phase: "reduction", detail: "0 difficult pairs"},
		{at: at(81), checkpoint: true, phase: "reduction"},
	}
	want := map[string]float64{
		"feature.extractor": 0.010, "blocker": 0.020, "checkpoint": 0.005,
		"feature.vectors": 0.009, "matcher": 0.020, "estimator": 0.008, "locator": 0.009,
	}
	got := phaseSums(cutPhases(t0, marks))
	for name, w := range want {
		if d := got[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v s, want %v s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("phases %v, want %v", got, want)
	}
}
