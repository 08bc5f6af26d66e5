package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/runsvc"
	"github.com/corleone-em/corleone/internal/shard"
)

// setupReps is how many times a run sets up its inputs before measuring;
// setup_s is the median.
const setupReps = 15

// batchRun is one measured engine.Run.
type batchRun struct {
	wallS  float64
	allocM float64
	res    *engine.Result
	spec   runsvc.Spec
	// Traced runs only.
	phases []phase
	crowd  *timedCrowd
	runner *crowd.Runner
	shards shard.Stats
	start  time.Time
	end    time.Time
}

// runBatchOnce runs the engine once on fresh inputs. A traced run installs
// the Listener and Checkpoint hooks, wraps the crowd and counts shard
// tasks; an untraced run passes the inputs as they are.
func runBatchOnce(spec runsvc.Spec, traced bool) (*batchRun, error) {
	cfg := spec.Config
	c := spec.Crowd
	r := &batchRun{spec: spec}
	var marks []mark
	if traced {
		r.crowd = &timedCrowd{inner: spec.Crowd}
		c = r.crowd
		r.runner = crowd.NewRunner(c, cfg.PricePerQuestion)
		cfg.Runner = r.runner
		cfg.Listener = func(e engine.Event) {
			marks = append(marks, mark{at: time.Now(), phase: e.Phase, detail: e.Detail})
		}
		cfg.Checkpoint = func(cp engine.Checkpoint) {
			marks = append(marks, mark{at: time.Now(), checkpoint: true, phase: cp.Phase})
		}
		cfg.Blocker.ShardStats = &r.shards
	}
	// Start every run from a collected heap, so no run pays for garbage
	// an earlier one left.
	runtime.GC()
	a0 := allocMiB()
	r.start = time.Now()
	res, err := engine.Run(spec.Dataset, c, cfg)
	r.end = time.Now()
	r.allocM = allocMiB() - a0
	if err != nil {
		return nil, err
	}
	r.wallS = r.end.Sub(r.start).Seconds()
	r.res = res
	if traced {
		r.phases = cutPhases(r.start, marks)
	}
	return r, nil
}

// runBatch measures one batch workload: engine runs back to back until
// the time is up (at least minRuns). With tracing on, traced and untraced
// runs alternate so the tracing overhead can be measured.
func runBatch(o options) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	want, ok := refs[o.workload]
	if !ok {
		return nil, fmt.Errorf("no reference outcome for %s", o.workload)
	}
	rep := newReport()

	var setups, gens []float64
	build := func() (runsvc.Spec, error) {
		t0 := time.Now()
		spec, err := runsvc.BuildSpec(batchMetas[o.workload])
		t1 := time.Now()
		if err == nil {
			relabel(spec.Dataset, o.seed)
		}
		gens = append(gens, t1.Sub(t0).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
		return spec, err
	}
	for i := 0; i < setupReps; i++ {
		if _, err := build(); err != nil {
			return nil, err
		}
	}

	minRuns := 3
	if o.trace {
		minRuns = 4
	}
	var plain, traced []*batchRun
	var cartesian float64
	var dims string
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < o.seconds; i++ {
		spec, err := build()
		if err != nil {
			return nil, err
		}
		rep.Attempted++
		run, err := runBatchOnce(spec, o.trace && i%2 == 1)
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if got := outcomeOf(run.res); got != want {
			rep.fail("run %d: outcome %+v differs from reference %+v", i, got, want)
			continue
		}
		cartesian = float64(run.res.Blocking.CartesianSize)
		dims = fmt.Sprintf("%dx%d", spec.Dataset.A.Len(), spec.Dataset.B.Len())
		switch {
		case run.phases == nil:
			plain = append(plain, run)
		case len(traced) == 0:
			traced = append(traced, run)
			continue
		default:
			traced = append(traced, run)
		}
		// Only the first traced run's inputs and result are used later
		// (by the probes); dropping the others keeps earlier runs from
		// growing the heap that later runs collect.
		run.res, run.spec, run.runner = nil, runsvc.Spec{}, nil
	}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		return rep, nil
	}
	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.wallS)
	}
	rep.note("input %s = %d pairs; %d runs (%d traced) in %.1fs; untraced run walls (s) %.3f",
		dims, int64(cartesian), rep.Attempted, len(traced), time.Since(start).Seconds(), walls)

	if !o.trace {
		var rates, allocs []float64
		for _, r := range plain {
			rates = append(rates, cartesian/r.wallS)
			allocs = append(allocs, r.allocM)
		}
		rep.set("setup_s", median(setups), "s")
		rep.set("pairs_per_s", median(rates), "pairs/s")
		rep.set("job_s.p50", median(walls), "s")
		rep.set("job_s.p90", quantile(walls, 0.9), "s")
		rep.set("jobs_per_s", 1/mean(walls), "jobs/s")
		rep.set("f1_true", want.F1True, "%")
		rep.set("crowd_cost_usd", want.CostUSD, "usd")
		rep.set("crowd_pairs", float64(want.Pairs), "pairs")
		rep.set("alloc_mb", median(allocs), "MiB")
		return rep, nil
	}

	tr := newTracer()
	var tracedWalls, coverage, untraced, answerS []float64
	sums := map[string][]float64{}
	for i, r := range traced {
		id := fmt.Sprintf("run-%d", i)
		root := tr.add(id, 0, "engine.Run", r.start, r.end)
		var named float64
		for _, p := range r.phases {
			tr.add(id, root, p.name, p.start, p.end)
			named += p.end.Sub(p.start).Seconds()
		}
		for name, s := range phaseSums(r.phases) {
			sums[name] = append(sums[name], s)
		}
		tracedWalls = append(tracedWalls, r.wallS)
		coverage = append(coverage, named/r.wallS)
		untraced = append(untraced, r.wallS-named)
		answerS = append(answerS, float64(r.crowd.busyNS)/1e9)
	}
	first := traced[0]
	res := first.res
	rep.set("datagen.generate_s", median(gens), "s")
	rep.set("feature.extractor_s", median(sums["feature.extractor"]), "s")
	rep.set("feature.vectors_s", median(sums["feature.vectors"]), "s")
	rep.set("feature.vectors_ns_per_pair",
		1e9*ratio(median(sums["feature.vectors"]), float64(len(res.Blocking.Candidates))), "ns")
	blockS := median(sums["blocker"])
	rep.set("blocker.run_s", blockS, "s")
	if res.Blocking.Triggered {
		rep.set("blocker.pairs_per_s", ratio(cartesian, blockS), "pairs/s")
	} else {
		rep.set("blocker.pairs_per_s", 0, "pairs/s")
	}
	rep.set("shard.tasks", float64(first.shards.Dispatched.Load()), "count")
	rep.set("shard.retries", float64(first.shards.Retried.Load()), "count")
	rep.set("shard.bytes_per_task", ratio(float64(first.shards.BytesSent.Load()+first.shards.BytesReceived.Load()),
		float64(first.shards.Dispatched.Load())), "B")
	rep.set("matcher.run_s", median(sums["matcher"]), "s")
	rep.set("estimator.run_s", median(sums["estimator"]), "s")
	rep.set("locator.run_s", median(sums["locator"]), "s")
	rep.set("crowd.answers", float64(first.crowd.answers), "count")
	rep.set("crowd.answers_per_pair", ratio(float64(first.crowd.answers), float64(res.Accounting.Pairs)), "ratio")
	rep.set("crowd.answer_s", median(answerS), "s")
	rep.set("engine.untraced_s", median(untraced), "s")
	rep.set("trace.coverage", median(coverage), "ratio")
	rep.set("trace.overhead", ratio(median(tracedWalls), median(walls)), "ratio")
	for _, name := range []string{"runsvc.submit_s", "runsvc.queue_wait_s", "runsvc.checkpoint_s"} {
		rep.set(name, 0, "s")
	}
	for _, name := range []string{"runsvc.journal_bytes_per_job", "runsvc.snapshot_bytes_per_job"} {
		rep.set(name, 0, "B")
	}
	rep.set("runsvc.snapshots_per_job", 0, "count")
	rep.set("runsvc.shed", 0, "count")
	layerCounts(rep, []*engine.Result{res})
	runProbes(tr, o.seed, probeInputs{ds: first.spec.Dataset, res: res, runner: first.runner}, rep)

	path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}
