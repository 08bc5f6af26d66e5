package shard

// Transport benchmarks: the PR 6 wire protocol — one fat JSON task per
// HTTP round trip, rules and feature constants repeated in every request,
// JSON envelope responses — against this round's lean path: constants
// hoisted into /shard/load, batched task arrays, and delta-encoded binary
// pair frames. Both clients hit the same pre-loaded worker over loopback
// HTTP and produce identical survivor streams, so the deltas are pure
// transport. Each benchmark reports the wire bytes it moved per task as
// the custom metric "wire-B/task"; scripts/bench.sh turns the legacy/
// batched ratio into the shard_transport section of BENCH_PR8.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/tree"
)

// fatTask reproduces the PR 6 probe request: the task plus every per-job
// constant inlined. The worker ignores the extra fields (the job it loaded
// holds the same values), so responses are byte-identical to the lean path
// — the benchmark measures wire format, not behavior.
type fatTask struct {
	Task
	Feature int         `json:"feature"`
	Theta   float64     `json:"theta"`
	Rules   []tree.Rule `json:"rules"`
}

// legacyProbeHandler reproduces the original JSON worker probe endpoint, which
// production workers no longer serve: one JSON task in, the JSON pair
// envelope out. It wraps the same Worker.Probe the binary endpoint runs.
func legacyProbeHandler(w *Worker) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var t Task
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		pairs, err := w.Probe(t)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		writeWorkerJSON(rw, http.StatusOK, pairsEnvelope{Pairs: pairs})
	})
}

// transportFixture is the shared bench harness: one worker, its job
// pre-loaded so no 412 handshake pollutes timing, served over loopback
// HTTP both by its production handler (srv) and by the legacy JSON handler
// (legacy); the full task grid; and the per-shard runs the coordinator
// would claim.
type transportFixture struct {
	spec   JobSpec
	srv    *httptest.Server
	legacy *httptest.Server
	grid   []Task
	runs   [][]Task // grid grouped by shard, each run Seq-ascending
	fat    [][]byte // pre-marshaled legacy request bodies, one per grid task
}

var (
	transportOnce sync.Once
	transportFix  *transportFixture
	transportErr  error
)

// benchTransportFixture builds the fixture once per bench binary.
func benchTransportFixture(b *testing.B) *transportFixture {
	b.Helper()
	transportOnce.Do(func() {
		// A loose blocking rule (θ = 0.1) keeps the survivor stream dense —
		// many pairs per task relative to index-probe compute — which is the
		// communication-bound regime this benchmark isolates: the wire cost
		// of moving survivors dominates, exactly where the format matters.
		const (
			dataset = "restaurants"
			scale   = 0.3
			k       = 2
			theta   = 0.1
		)
		ds, err := datagen.DatasetFor(dataset, scale, 0)
		if err != nil {
			transportErr = err
			return
		}
		ex := feature.NewExtractor(ds)
		f := featureByKind(ex, "jaccard_w")
		if f < 0 {
			transportErr = fmt.Errorf("no jaccard_w feature in %s", dataset)
			return
		}
		spec := JobSpec{Job: "bench-transport", Dataset: dataset, Scale: scale,
			Shards: k, Feature: f, Theta: theta,
			Rules: []tree.Rule{leRule(f, theta)}}
		w := NewWorker()
		if err := w.Load(spec); err != nil {
			transportErr = err
			return
		}
		profA, _ := ex.Profiles(f)
		grid := BlockTasks(spec.Job, len(profA), k)
		runs := make([][]Task, k)
		fat := make([][]byte, len(grid))
		for i, t := range grid {
			runs[t.Shard] = append(runs[t.Shard], t)
			fat[i], err = json.Marshal(fatTask{Task: t, Feature: f, Theta: theta, Rules: spec.Rules})
			if err != nil {
				transportErr = err
				return
			}
		}
		transportFix = &transportFixture{
			spec:   spec,
			srv:    httptest.NewServer(w.Handler()),
			legacy: httptest.NewServer(legacyProbeHandler(w)),
			grid:   grid,
			runs:   runs,
			fat:    fat,
		}
	})
	if transportErr != nil {
		b.Fatal(transportErr)
	}
	return transportFix
}

// BenchmarkTransportJSONLegacy is the PR 6 baseline, reproduced exactly:
// every task is its own POST carrying the fat JSON body, every response a
// JSON pair envelope. One op = one task.
func BenchmarkTransportJSONLegacy(b *testing.B) {
	fx := benchTransportFixture(b)
	client := fx.legacy.Client()
	var wire int64
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fx.fat[i%len(fx.fat)]
		resp, err := client.Post(fx.legacy.URL+"/shard/probe", JSONContentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("probe: HTTP %d: %s", resp.StatusCode, data)
		}
		var pr pairsEnvelope
		if err := json.Unmarshal(data, &pr); err != nil {
			b.Fatal(err)
		}
		sink += len(pr.Pairs)
		wire += int64(len(body) + len(data))
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("legacy path decoded zero pairs — the workload is empty")
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/task")
}

// BenchmarkTransportBinarySingle isolates the codec axis: still one POST
// per task, but lean task bodies and binary pair-block responses. One op =
// one task.
func BenchmarkTransportBinarySingle(b *testing.B) {
	fx := benchTransportFixture(b)
	exec, stats := benchExecutor(fx)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := exec.Probe(fx.grid[i%len(fx.grid)], 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(pairs)
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("binary single path decoded zero pairs — the workload is empty")
	}
	reportWire(b, stats)
}

// BenchmarkTransportBinaryBatched is the production path: whole per-shard
// runs per POST, responses consumed as length-prefixed binary frames. One
// op = one task (the batch round trips amortize across ops).
func BenchmarkTransportBinaryBatched(b *testing.B) {
	fx := benchTransportFixture(b)
	exec, stats := benchExecutor(fx)
	sink := 0
	b.ResetTimer()
	for done := 0; done < b.N; {
		for _, run := range fx.runs {
			if done >= b.N {
				break
			}
			batch := run
			if rem := b.N - done; len(batch) > rem {
				batch = batch[:rem]
			}
			results, err := exec.ProbeBatch(batch, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != len(batch) {
				b.Fatalf("batch answered %d of %d tasks", len(results), len(batch))
			}
			for _, pairs := range results {
				sink += len(pairs)
			}
			done += len(batch)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("batched path decoded zero pairs — the workload is empty")
	}
	reportWire(b, stats)
}

// benchExecutor builds a bound remote executor over the fixture's worker
// with fresh byte counters.
func benchExecutor(fx *transportFixture) (*RemoteExecutor, *Stats) {
	stats := &Stats{}
	exec := NewRemoteExecutor([]string{fx.srv.URL}, fx.spec, fx.srv.Client())
	exec.BindJob(JobParams{
		Job:     fx.spec.Job,
		Shards:  fx.spec.Shards,
		Feature: fx.spec.Feature,
		Theta:   fx.spec.Theta,
		Rules:   fx.spec.Rules,
		Stats:   stats,
	})
	return exec, stats
}

// reportWire emits the executor's request+response bytes per op.
func reportWire(b *testing.B, stats *Stats) {
	wire := stats.BytesSent.Load() + stats.BytesReceived.Load()
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/task")
}
