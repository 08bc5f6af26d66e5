package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/platform"
	"github.com/corleone-em/corleone/internal/record"
)

// httpStatusError is a non-2xx shard-worker response. It exposes
// HTTPStatus so platform.Retryable classifies it exactly like the
// marketplace transport's own errors: 5xx retries, 4xx does not.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("shard: HTTP %d: %s", e.status, e.msg)
}

func (e *httpStatusError) HTTPStatus() int { return e.status }

// RemoteExecutor runs shard tasks on worker processes over HTTP. Fault
// handling rides on the platform package's machinery: a per-endpoint
// circuit breaker fails fast on a dead worker, the coordinator's retry
// loop re-dispatches with an incremented attempt, and the executor routes
// attempt n of a shard's task to endpoint (shard+n) mod len(endpoints) —
// so consecutive retries fail over to different workers. Probes are
// idempotent by construction (a task is a pure function of its fields and
// the job's deterministic dataset), so a retry after an ambiguous failure
// — the crashed worker may or may not have finished computing — cannot
// double-emit or diverge; the idempotency key header makes the retry
// visible to logging middleware the same way platform's HIT creation is.
//
// Transport fast paths (both negotiated, both falling back to the PR 6
// JSON envelope against an older worker):
//
//   - single probes advertise the binary pair codec in Accept and decode
//     whichever representation the worker answers with;
//   - ProbeBatch ships a whole run of same-shard tasks in one request and
//     consumes the response as a per-task stream — length-prefixed binary
//     pair blocks or NDJSON lines — completing each task as its frame
//     arrives. A stream torn mid-batch returns the delivered prefix plus
//     a retryable error; the coordinator re-runs only the tail.
type RemoteExecutor struct {
	endpoints []string
	client    *http.Client
	breakers  []platform.Breaker

	// ForceJSON disables the binary codec: Accept advertises only the JSON
	// envelope (and NDJSON for batches). It exists for the equivalence
	// tests and the transport benchmark — outputs are byte-identical either
	// way, JSON just costs more wire.
	ForceJSON bool
	// MaxBatchTasks caps how many tasks one wire request carries (<=0
	// means 64). ProbeBatch splits longer runs into sequential requests —
	// the byte budget per request stays bounded no matter how large a run
	// the coordinator claims.
	MaxBatchTasks int

	mu    sync.Mutex
	spec  JobSpec
	stats *Stats
}

// NewRemoteExecutor targets the given worker base URLs (e.g.
// "http://127.0.0.1:9301"). spec seeds the lazy-load handshake: only the
// dataset recipe (Dataset, Scale, Noise) must be filled in — the job id,
// shard count, anchor feature, threshold, and rules arrive via BindJob
// once the planner has chosen them. client nil means a default with a
// generous per-call timeout (a batch covers at most MaxBatchTasks probes).
func NewRemoteExecutor(endpoints []string, spec JobSpec, client *http.Client) *RemoteExecutor {
	if client == nil {
		client = &http.Client{Timeout: 120 * time.Second}
	}
	return &RemoteExecutor{
		endpoints: endpoints,
		spec:      spec,
		client:    client,
		breakers:  make([]platform.Breaker, len(endpoints)),
	}
}

// BindJob implements JobBinder: it stamps the job's per-run constants into
// the /shard/load spec and wires the transport byte counters. The planner
// calls it exactly once per run, before any task flows.
func (e *RemoteExecutor) BindJob(p JobParams) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spec.Job = p.Job
	e.spec.Shards = p.Shards
	e.spec.Feature = p.Feature
	e.spec.Theta = p.Theta
	e.spec.Rules = p.Rules
	e.stats = p.Stats
}

// jobSpec snapshots the bound spec.
func (e *RemoteExecutor) jobSpec() JobSpec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spec
}

// countSent / countReceived feed the transport accounting when bound.
func (e *RemoteExecutor) countSent(n int) {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	if st != nil {
		st.BytesSent.Add(int64(n))
	}
}

func (e *RemoteExecutor) countReceived(n int) {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	if st != nil {
		st.BytesReceived.Add(int64(n))
	}
}

// route picks the endpoint index for a shard's attempt.
func (e *RemoteExecutor) route(shard, attempt int) (string, *platform.Breaker, error) {
	if len(e.endpoints) == 0 {
		return "", nil, errors.New("shard: remote executor has no endpoints")
	}
	i := (shard + attempt) % len(e.endpoints)
	return e.endpoints[i], &e.breakers[i], nil
}

// Probe implements Executor: route, gate on the endpoint's breaker, probe,
// lazily load the job on 412, and feed the outcome back to the breaker.
func (e *RemoteExecutor) Probe(t Task, attempt int) ([]record.Pair, error) {
	ep, br, err := e.route(t.Shard, attempt)
	if err != nil {
		return nil, err
	}
	// The breaker's cooldown clock gates retry/failover timing only; which
	// pairs a probe returns is pinned by the deterministic shard rebuild,
	// and the chaos suite asserts bit-identical results under faults.
	if err := br.Allow(); err != nil { //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
		return nil, fmt.Errorf("%w (endpoint %s)", err, ep)
	}
	pairs, err := e.probeOnce(ep, t)
	if isUnloaded(err) {
		// The worker doesn't know the job — it is fresh or was restarted
		// after a crash. Hand it the spec and retry on the same endpoint;
		// the rebuild is deterministic, so the answer is unchanged.
		if lerr := e.load(ep); lerr != nil {
			br.Record(lerr) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
			return nil, lerr
		}
		pairs, err = e.probeOnce(ep, t)
		err = restartedSinceLoad(ep, err)
	}
	br.Record(err) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
	return pairs, err
}

// ProbeBatch implements BatchExecutor: one request per MaxBatchTasks-sized
// chunk of the run, each consumed as a per-task result stream. All tasks
// in a batch share a shard (the coordinator groups them), so the whole
// batch routes like a single task would. On any failure the completed
// prefix is returned with the error; the caller retries only the rest.
func (e *RemoteExecutor) ProbeBatch(tasks []Task, attempt int) ([][]record.Pair, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	ep, br, err := e.route(tasks[0].Shard, attempt)
	if err != nil {
		return nil, err
	}
	limit := e.MaxBatchTasks
	if limit <= 0 {
		limit = 64
	}
	results := make([][]record.Pair, 0, len(tasks))
	for len(tasks) > 0 {
		chunk := tasks
		if len(chunk) > limit {
			chunk = chunk[:limit]
		}
		tasks = tasks[len(chunk):]
		if err := br.Allow(); err != nil { //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
			return results, fmt.Errorf("%w (endpoint %s)", err, ep)
		}
		part, err := e.batchOnce(ep, chunk)
		if isUnloaded(err) && len(part) == 0 {
			if lerr := e.load(ep); lerr != nil {
				br.Record(lerr) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
				return results, lerr
			}
			part, err = e.batchOnce(ep, chunk)
			if len(part) == 0 {
				err = restartedSinceLoad(ep, err)
			}
		}
		br.Record(err) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
		results = append(results, part...)
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// isUnloaded reports the 412 lazy-load handshake.
func isUnloaded(err error) bool {
	var he *httpStatusError
	return errors.As(err, &he) && he.status == http.StatusPreconditionFailed
}

// restartedSinceLoad classifies the probe that follows a successful load.
// A 412 there means the worker lost the job between the two requests: it
// restarted in between (net/http may even have re-sent the probe to the
// new process after the old one died). That is transient, like a dropped
// connection, so the error drops its 4xx status and the coordinator
// retries the task on the next endpoint instead of failing the run.
func restartedSinceLoad(ep string, err error) error {
	if !isUnloaded(err) {
		return err
	}
	return fmt.Errorf("shard: endpoint %s lost the job right after loading it (worker restarted): %v", ep, err)
}

// newRequest builds a counted POST with the idempotency key and accept
// header set.
func (e *RemoteExecutor) newRequest(url, idemKey, accept string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", JSONContentType)
	req.Header.Set("Accept", accept)
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	e.countSent(len(body))
	return req, nil
}

// post sends v as JSON and returns the response body on 2xx, or an
// httpStatusError carrying the status and (truncated) body otherwise.
func (e *RemoteExecutor) post(url, idemKey, accept string, v any) ([]byte, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	req, err := e.newRequest(url, idemKey, accept, body)
	if err != nil {
		return nil, "", err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	//corlint:allow dur-ignored-write — response close on a fully read (or failed) body; the read outcome already decided the call
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	e.countReceived(len(data))
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		msg := string(data)
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return nil, "", &httpStatusError{status: resp.StatusCode, msg: msg}
	}
	return data, resp.Header.Get("Content-Type"), nil
}

// acceptFor returns the Accept header for single (stream=false) or batched
// probes, honoring ForceJSON.
func (e *RemoteExecutor) acceptFor(stream bool) string {
	if stream {
		if e.ForceJSON {
			return JSONStreamContentType
		}
		return PairStreamContentType + ", " + JSONStreamContentType
	}
	if e.ForceJSON {
		return JSONContentType
	}
	return PairsContentType + ", " + JSONContentType
}

func (e *RemoteExecutor) probeOnce(ep string, t Task) ([]record.Pair, error) {
	data, ctype, err := e.post(ep+"/shard/probe", fmt.Sprintf("%s-%d", t.Job, t.Seq), e.acceptFor(false), t)
	if err != nil {
		return nil, err
	}
	if ctype == PairsContentType {
		pairs, err := DecodePairs(data, nil)
		if err != nil {
			return nil, fmt.Errorf("shard: bad binary probe response from %s: %w", ep, err)
		}
		return pairs, nil
	}
	var pr probeResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, fmt.Errorf("shard: bad probe response from %s: %w", ep, err)
	}
	return pr.Pairs, nil
}

// countingReader counts bytes as the stream consumes them, so a torn batch
// still accounts exactly what arrived.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// batchOnce ships one wire batch and consumes its result stream. The
// returned slice holds one entry per *delivered* task, in task order; err
// is non-nil when the stream ended before every task answered.
func (e *RemoteExecutor) batchOnce(ep string, tasks []Task) ([][]record.Pair, error) {
	body, err := json.Marshal(tasks)
	if err != nil {
		return nil, err
	}
	idem := fmt.Sprintf("%s-%d-%d", tasks[0].Job, tasks[0].Seq, tasks[len(tasks)-1].Seq)
	req, err := e.newRequest(ep+"/shard/probe", idem, e.acceptFor(true), body)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	//corlint:allow dur-ignored-write — response close after the stream was drained (or tore); the frame reads already decided the outcome
	defer resp.Body.Close()
	cr := &countingReader{r: io.LimitReader(resp.Body, 1<<30)}
	defer func() { e.countReceived(int(cr.n)) }()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(cr, 4096))
		msg := string(data)
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return nil, &httpStatusError{status: resp.StatusCode, msg: msg}
	}
	switch ct := resp.Header.Get("Content-Type"); ct {
	case PairStreamContentType:
		return readBinaryStream(cr, len(tasks), ep)
	case JSONStreamContentType:
		return readJSONStream(cr, len(tasks), ep)
	default:
		return nil, fmt.Errorf("shard: unexpected batch content type %q from %s", ct, ep)
	}
}

// readBinaryStream consumes length-prefixed binary pair blocks.
func readBinaryStream(r io.Reader, want int, ep string) ([][]record.Pair, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	results := make([][]record.Pair, 0, want)
	var buf []byte
	for len(results) < want {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			// io.EOF here means the worker died between frames; a torn
			// frame surfaces as a truncation error. Either way the prefix
			// already decoded is complete and the rest is retryable.
			return results, fmt.Errorf("shard: batch stream from %s ended after %d of %d tasks: %w",
				ep, len(results), want, err)
		}
		buf = frame[:0]
		pairs, err := DecodePairs(frame, nil)
		if err != nil {
			return results, fmt.Errorf("shard: bad batch frame from %s: %w", ep, err)
		}
		results = append(results, pairs)
	}
	return results, nil
}

// readJSONStream consumes NDJSON probe envelopes — the batch fallback.
func readJSONStream(r io.Reader, want int, ep string) ([][]record.Pair, error) {
	dec := json.NewDecoder(r)
	results := make([][]record.Pair, 0, want)
	for len(results) < want {
		var pr probeResponse
		if err := dec.Decode(&pr); err != nil {
			return results, fmt.Errorf("shard: batch stream from %s ended after %d of %d tasks: %w",
				ep, len(results), want, err)
		}
		results = append(results, pr.Pairs)
	}
	return results, nil
}

// load hands the worker the bound job spec — everything it needs to
// rebuild the job deterministically. Every task of one job binds the same
// spec, so the resulting load is identical whichever task triggers it —
// which is what keeps the worker's spec-conflict check quiet across
// retries and failover.
func (e *RemoteExecutor) load(ep string) error {
	spec := e.jobSpec()
	if spec.Job == "" {
		return errors.New("shard: remote executor used before BindJob")
	}
	_, _, err := e.post(ep+"/shard/load", "load-"+spec.Job, JSONContentType, spec)
	if err != nil {
		return fmt.Errorf("shard: load job %q on %s: %w", spec.Job, ep, err)
	}
	return nil
}
