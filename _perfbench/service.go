package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/runsvc"
	"github.com/corleone-em/corleone/internal/shard"
)

// The service workload: runsvc.Handler over loopback HTTP, two executor
// workers, a journal with a snapshot at every checkpoint (the cmd/runsvc
// default), and one in-process shard worker serving sharded blocking.
// Two clients run a closed loop: each POSTs a Meta, follows the job's
// event stream to its terminal state, and only then submits the next.
const (
	serviceWorkers = 2
	serviceClients = 2
	// serviceMetaCount distinct jobs, half of each kind. Per-job crowd
	// cost and wall time vary about 3x with the Meta seed, so a run
	// cycles through many distinct jobs rather than repeating one.
	serviceMetaCount = 32
	// minServiceJobs puts at least ten job times beyond the p90.
	minServiceJobs = 100
	// maxServiceCycles bounds how many passes over the Metas a run's
	// submission order covers.
	maxServiceCycles = 64
)

// serviceKinds are the two job kinds the clients alternate: a small
// unblocked restaurants job and a small sharded citations job.
var serviceKinds = [2]runsvc.Meta{
	{Profile: "restaurants", Scale: 0.1, ErrorRate: 0.05},
	{Profile: "citations", Scale: 0.02, ErrorRate: 0.05, TB: 2000, Shards: 2},
}

// serviceMetas are the distinct jobs: the kinds alternate, and each
// kind's Meta seeds run 1, 2, 3, ...
func serviceMetas() []runsvc.Meta {
	metas := make([]runsvc.Meta, serviceMetaCount)
	for i := range metas {
		metas[i] = serviceKinds[i%len(serviceKinds)]
		metas[i].Seed = int64(i/len(serviceKinds) + 1)
	}
	return metas
}

// jobOrder is the seed's submission order: cycle after cycle of every
// Meta, kinds alternating, each kind's Metas in a fresh seeded order per
// cycle. Every seed submits the same jobs; the seed decides which run
// side by side. Drawing the Meta seeds themselves from the workload seed
// was tried first: the mix of slow and fast jobs then changed the p90 and
// the throughput by over 25% from seed to seed.
func jobOrder(seed int64, cycles int) []int {
	rng := rand.New(rand.NewSource(seed))
	perKind := serviceMetaCount / len(serviceKinds)
	order := make([]int, 0, cycles*serviceMetaCount)
	for c := 0; c < cycles; c++ {
		p0, p1 := rng.Perm(perKind), rng.Perm(perKind)
		for j := 0; j < perKind; j++ {
			order = append(order, 2*p0[j], 2*p1[j]+1)
		}
	}
	return order
}

// service is one running instance of the service under test.
type service struct {
	dir        string
	mgr        *runsvc.Manager
	api, shard *http.Server
	wg         sync.WaitGroup
	base       string
	// genS is the time the set-up spent generating datasets.
	genS float64
}

// startService generates the job kinds' datasets and starts the shard
// worker, the manager and the HTTP server, returning once /healthz
// answers.
func startService(parent string, client *http.Client) (*service, error) {
	t0 := time.Now()
	for _, k := range serviceKinds {
		if _, err := datagen.DatasetFor(k.Profile, k.Scale, k.Noise); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(parent, "journal-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, genS: time.Since(t0).Seconds()}
	var shardURL string
	if s.shard, shardURL, err = s.serve(shard.NewWorker().Handler()); err != nil {
		s.stop()
		return nil, err
	}
	s.mgr, err = runsvc.NewManager(runsvc.Options{
		Workers:        serviceWorkers,
		JournalDir:     dir,
		SnapshotEvery:  1,
		ShardEndpoints: []string{shardURL},
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	if s.api, s.base, err = s.serve(runsvc.Handler(s.mgr)); err != nil {
		s.stop()
		return nil, err
	}
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

func (s *service) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// stop closes the servers and the manager, waits for every goroutine they
// started, and removes the journal. The API server closes first, so
// nothing reaches a closed manager; the shard worker last, since running
// jobs may still probe it.
func (s *service) stop() {
	if s.api != nil {
		s.api.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.shard != nil {
		s.shard.Close()
	}
	s.wg.Wait()
	os.RemoveAll(s.dir)
}

// serviceJob is one job as the client saw it.
type serviceJob struct {
	meta     int
	id       string
	traced   bool
	posted   time.Time
	accepted time.Time
	running  time.Time
	terminal time.Time
	state    runsvc.State
	marks    []mark
}

// submit POSTs the job and follows its event stream over HTTP to the
// terminal state. A refused submission (429/503) is an error like any
// other. A traced job is also subscribed to in process right after the
// POST returns, and its events are stamped as they are published: over
// HTTP, events queue in the socket while the client waits for a CPU and
// then arrive together.
func (s *service) submit(client *http.Client, metaIdx int, meta runsvc.Meta, traced bool) (*serviceJob, error) {
	body, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	j := &serviceJob{meta: metaIdx, traced: traced, posted: time.Now()}
	resp, err := client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st runsvc.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.accepted = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		return nil, fmt.Errorf("POST /jobs: %s", resp.Status)
	case err != nil:
		return nil, fmt.Errorf("POST /jobs: %w", err)
	}
	j.id = st.ID

	var published chan struct{}
	if traced {
		job, ok := s.mgr.Job(j.id)
		if !ok {
			return nil, fmt.Errorf("job %s: unknown to the manager", j.id)
		}
		ch, cancel := job.Subscribe()
		defer cancel()
		published = make(chan struct{})
		go func() {
			defer close(published)
			for e := range ch {
				at := time.Now()
				if e.Kind == "state" {
					if e.State == runsvc.StateRunning {
						j.running = at
					}
					continue
				}
				j.marks = append(j.marks, mark{at: at, checkpoint: e.Kind == "checkpoint",
					phase: e.Phase, detail: e.Detail})
			}
		}()
	}

	resp, err = client.Get(s.base + "/jobs/" + j.id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		at := time.Now()
		var e runsvc.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		if e.Kind == "state" && e.State.Terminal() {
			j.terminal, j.state = at, e.State
			if traced {
				// The in-process stream closes once the job has finished.
				<-published
			}
			return j, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	return nil, fmt.Errorf("event stream of %s ended before a terminal state", j.id)
}

// serviceRef is the serial engine.Run of one Meta that the service's
// result for it must equal.
type serviceRef struct {
	probeInputs
	out   outcome
	crowd *timedCrowd
}

func serialReference(meta runsvc.Meta) (*serviceRef, error) {
	spec, err := runsvc.BuildSpec(meta)
	if err != nil {
		return nil, err
	}
	tc := &timedCrowd{inner: spec.Crowd}
	runner := crowd.NewRunner(tc, spec.Config.PricePerQuestion)
	cfg := spec.Config
	cfg.Runner = runner
	res, err := engine.Run(spec.Dataset, tc, cfg)
	if err != nil {
		return nil, err
	}
	return &serviceRef{probeInputs: probeInputs{ds: spec.Dataset, res: res, runner: runner},
		out: outcomeOf(res), crowd: tc}, nil
}

// journalProbeJobs is how many Metas the journal probe runs.
const journalProbeJobs = 8

// journalProbe runs the Metas serially, journaled the way runsvc journals
// a job (labels flushed at batch boundaries, batches appended, a
// Journal.Checkpoint with a snapshot at every engine checkpoint), and
// returns the duration of each Journal.Checkpoint call. The service's own
// events cannot time these calls: a client's stamps lag while the
// executors hold both CPUs.
func journalProbe(parent string, metas []runsvc.Meta) ([]float64, error) {
	dir, err := os.MkdirTemp(parent, "probe-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := runsvc.NewStore(dir)
	if err != nil {
		return nil, err
	}
	store.SnapshotEvery = 1
	var secs []float64
	for i, meta := range metas {
		spec, err := runsvc.BuildSpec(meta)
		if err != nil {
			return nil, err
		}
		jl, err := store.Open(fmt.Sprintf("probe-%d", i))
		if err != nil {
			return nil, err
		}
		if err := jl.WriteSpec(spec.Name, spec.Meta); err != nil {
			return nil, err
		}
		var jerr error
		keep := func(err error) {
			if jerr == nil {
				jerr = err
			}
		}
		runner := crowd.NewRunner(spec.Crowd, spec.Config.PricePerQuestion)
		runner.AfterBatch = func() { keep(jl.FlushLabels(runner)) }
		runner.OnBatch = func(batch []crowd.Labeled) { keep(jl.AppendBatch(runner, batch)) }
		cfg := spec.Config
		cfg.Runner = runner
		cfg.Checkpoint = func(cp engine.Checkpoint) {
			t0 := time.Now()
			keep(jl.Checkpoint(runner, cp))
			secs = append(secs, time.Since(t0).Seconds())
		}
		_, err = engine.Run(spec.Dataset, spec.Crowd, cfg)
		keep(err)
		keep(jl.FlushLabels(runner))
		keep(jl.Close())
		if jerr != nil {
			return nil, jerr
		}
	}
	return secs, nil
}

func runService(o options) (*report, error) {
	rep := newReport()
	metas := serviceMetas()
	order := jobOrder(o.seed, maxServiceCycles)
	refs := make([]*serviceRef, len(metas))
	for i, m := range metas {
		ref, err := serialReference(m)
		if err != nil {
			return nil, fmt.Errorf("reference for %+v: %w", m, err)
		}
		refs[i] = ref
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	defer client.CloseIdleConnections()
	var setups, gens []float64
	var svc *service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		var err error
		if svc, err = startService(o.dir, client); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, svc.genS)
	}
	defer svc.stop()

	// Closed loop: a client claims the next job only after its previous
	// job ended. Claiming stops at the first whole number of passes over
	// the Metas that reaches both the time and minServiceJobs, so every
	// run measures the same mix of jobs; hardStop bounds a run on a
	// machine too slow to get there.
	m0 := svc.mgr.Metrics()
	a0 := allocMiB()
	start := time.Now()
	hardStop := start.Add(3*o.seconds + 30*time.Second)
	var mu sync.Mutex
	var jobs []*serviceJob
	claimed, stopped := 0, false
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if stopped || claimed == len(order) || now.After(hardStop) ||
			(now.Sub(start) >= o.seconds && claimed >= minServiceJobs && claimed%len(metas) == 0) {
			stopped = true
			return 0, false
		}
		claimed++
		return claimed - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, ok := claim()
				if !ok {
					return
				}
				// Traced and untraced jobs alternate in pairs, so each kind
				// has both.
				traced := o.trace && (idx/2)%2 == 1
				j, err := svc.submit(client, order[idx], metas[order[idx]], traced)
				mu.Lock()
				rep.Attempted++
				if err != nil {
					rep.fail("job %d: %v", idx, err)
				} else {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	allocPerJob := ratio(allocMiB()-a0, float64(len(jobs)))
	m1 := svc.mgr.Metrics()

	// Every job must end done with the serial reference's outcome.
	seen := make([]bool, len(metas))
	var ok []*serviceJob
	for _, j := range jobs {
		job, found := svc.mgr.Job(j.id)
		switch {
		case !found:
			rep.fail("job %s: unknown to the manager", j.id)
			continue
		case j.state != runsvc.StateDone:
			rep.fail("job %s: ended %s", j.id, j.state)
			continue
		}
		want := refs[j.meta].out
		if got := outcomeOf(job.Result()); got != want {
			rep.fail("job %s: outcome %+v differs from serial reference %+v", j.id, got, want)
			continue
		}
		seen[j.meta] = true
		ok = append(ok, j)
	}
	for i, s := range seen {
		if !s {
			rep.fail("meta %d (%+v) never completed", i, metas[i])
		}
	}
	if rep.Failed > 0 || len(ok) == 0 {
		return rep, nil
	}
	rep.note("%d jobs (%d distinct Metas, %d clients, %d workers) in %.1fs",
		len(ok), len(metas), serviceClients, serviceWorkers, elapsed)

	var jobS, tracedS, untracedS []float64
	var pairs float64
	for _, j := range ok {
		d := j.terminal.Sub(j.posted).Seconds()
		jobS = append(jobS, d)
		if j.traced {
			tracedS = append(tracedS, d)
		} else {
			untracedS = append(untracedS, d)
		}
		pairs += float64(refs[j.meta].res.Blocking.CartesianSize)
	}
	if !o.trace {
		var f1, cost, crowdPairs []float64
		for _, r := range refs {
			f1 = append(f1, r.out.F1True)
			cost = append(cost, r.out.CostUSD)
			crowdPairs = append(crowdPairs, float64(r.out.Pairs))
		}
		rep.set("setup_s", median(setups), "s")
		rep.set("pairs_per_s", pairs/elapsed, "pairs/s")
		rep.set("job_s.p50", median(jobS), "s")
		rep.set("job_s.p90", quantile(jobS, 0.9), "s")
		rep.set("jobs_per_s", float64(len(ok))/elapsed, "jobs/s")
		rep.set("f1_true", mean(f1), "%")
		rep.set("crowd_cost_usd", mean(cost), "usd")
		rep.set("crowd_pairs", mean(crowdPairs), "pairs")
		rep.set("alloc_mb", allocPerJob, "MiB")
		return rep, nil
	}

	tr := newTracer()
	var submit, queue, coverage, untraced, blockS, blockRate []float64
	sums := map[string][]float64{}
	for _, j := range ok {
		if !j.traced {
			continue
		}
		root := tr.add(j.id, 0, "job", j.posted, j.terminal)
		tr.add(j.id, root, "runsvc.submit", j.posted, j.accepted)
		tr.add(j.id, root, "runsvc.queue", j.accepted, j.running)
		named := j.running.Sub(j.posted).Seconds()
		submit = append(submit, j.accepted.Sub(j.posted).Seconds())
		queue = append(queue, j.running.Sub(j.accepted).Seconds())
		ps := cutPhases(j.running, j.marks)
		for _, p := range ps {
			tr.add(j.id, root, p.name, p.start, p.end)
			named += p.end.Sub(p.start).Seconds()
		}
		for name, s := range phaseSums(ps) {
			sums[name] = append(sums[name], s)
		}
		if ref := refs[j.meta]; ref.res.Blocking.Triggered {
			b := phaseSums(ps)["blocker"]
			blockS = append(blockS, b)
			blockRate = append(blockRate, ratio(float64(ref.res.Blocking.CartesianSize), b))
		}
		wall := j.terminal.Sub(j.posted).Seconds()
		coverage = append(coverage, named/wall)
		untraced = append(untraced, wall-named)
	}
	perJob := func(d int64) float64 { return float64(d) / float64(len(jobs)) }
	results := make([]*engine.Result, len(refs))
	var answers, answerS, crowdPairs, umbrella float64
	for i, r := range refs {
		results[i] = r.res
		umbrella += float64(len(r.res.Blocking.Candidates))
		answers += float64(r.crowd.answers)
		answerS += float64(r.crowd.busyNS) / 1e9
		crowdPairs += float64(r.out.Pairs)
	}
	n := float64(len(refs))
	rep.set("datagen.generate_s", median(gens), "s")
	rep.set("feature.extractor_s", median(sums["feature.extractor"]), "s")
	rep.set("feature.vectors_s", median(sums["feature.vectors"]), "s")
	rep.set("feature.vectors_ns_per_pair", 1e9*ratio(median(sums["feature.vectors"]), umbrella/n), "ns")
	rep.set("blocker.run_s", median(blockS), "s")
	rep.set("blocker.pairs_per_s", median(blockRate), "pairs/s")
	rep.set("shard.tasks", perJob(m1.ShardTasksDispatched-m0.ShardTasksDispatched), "count")
	rep.set("shard.retries", perJob(m1.ShardTasksRetried-m0.ShardTasksRetried), "count")
	rep.set("shard.bytes_per_task", ratio(float64(m1.ShardBytesSent-m0.ShardBytesSent+
		m1.ShardBytesReceived-m0.ShardBytesReceived),
		float64(m1.ShardTasksDispatched-m0.ShardTasksDispatched)), "B")
	rep.set("matcher.run_s", median(sums["matcher"]), "s")
	rep.set("estimator.run_s", median(sums["estimator"]), "s")
	rep.set("locator.run_s", median(sums["locator"]), "s")
	rep.set("crowd.answers", answers/n, "count")
	rep.set("crowd.answers_per_pair", ratio(answers, crowdPairs), "ratio")
	rep.set("crowd.answer_s", answerS/n, "s")
	rep.set("engine.untraced_s", median(untraced), "s")
	rep.set("trace.coverage", median(coverage), "ratio")
	rep.set("trace.overhead", ratio(median(tracedS), median(untracedS)), "ratio")
	rep.set("runsvc.submit_s", median(submit), "s")
	rep.set("runsvc.queue_wait_s", median(queue), "s")
	cpS, err := journalProbe(o.dir, metas[:journalProbeJobs])
	if err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	rep.set("runsvc.checkpoint_s", median(cpS), "s")
	rep.set("runsvc.journal_bytes_per_job", perJob(m1.BytesJournaled-m0.BytesJournaled), "B")
	rep.set("runsvc.snapshot_bytes_per_job", perJob(m1.SnapshotBytes-m0.SnapshotBytes), "B")
	rep.set("runsvc.snapshots_per_job", perJob(m1.SnapshotsWritten-m0.SnapshotsWritten), "count")
	rep.set("runsvc.shed", float64(m1.SubmitsShed-m0.SubmitsShed), "count")
	layerCounts(rep, results)
	// The probes run on the first citations job's serial reference: its
	// blocking rules give the shard verifier real work.
	runProbes(tr, o.seed, refs[1].probeInputs, rep)

	path := filepath.Join(o.dir, fmt.Sprintf("spans-service-seed%d.json", o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}
