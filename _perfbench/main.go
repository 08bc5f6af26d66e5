// Command perfbench is the repository's whole-run benchmark. It runs one
// workload for a fixed time, checks every output against its reference,
// and prints one JSON result line last:
//
//	sh _perfbench/run.sh --workload citations --seed 1 --seconds 40 --trace 0
//
// Workloads are citations and restaurants (one full engine.Run after
// another, in process) and service (runsvc over loopback HTTP with a
// journal and a shard worker). With --trace 0 the result holds the
// end-to-end metrics; with --trace 1 the run records spans around the
// calls into each layer and the result holds the per-layer metrics.
// README.md defines every metric.
//
// Other modes:
//
//	--out FILE             also append the result, with the environment
//	                       stamp, as one JSON line to FILE
//	--compare OLD NEW      compare two such files metric by metric
//	--write-reference      re-record reference.json from the base inputs
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run produces: the result plus human-readable
// notes (input size, sample counts) printed above it.
type report struct {
	result
	notes []string
}

func newReport() *report {
	return &report{result: result{Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir is the scratch directory (journals, span files) inside the
	// current directory.
	dir string
}

// env is the environment stamp written with every result. Results whose
// NProc or GOMAXPROCS differ are not comparable.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

// runRecord is one line of an --out file.
type runRecord struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
}

func main() {
	var (
		o        options
		seconds  int
		trace    int
		out      string
		compare  bool
		writeRef bool
	)
	flag.StringVar(&o.workload, "workload", "", "citations, restaurants or service")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 40, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&out, "out", "", "append the result as a JSON line to this file")
	flag.BoolVar(&compare, "compare", false, "compare two --out files: --compare OLD NEW")
	flag.BoolVar(&writeRef, "write-reference", false, "re-record reference.json")
	flag.Parse()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatalf("--compare takes two files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case writeRef:
		if err := writeReference(referencePath); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.dir = filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatalf("%v", err)
	}

	var (
		rep *report
		err error
	)
	switch o.workload {
	case "citations", "restaurants":
		rep, err = runBatch(o)
	case "service":
		rep, err = runService(o)
	default:
		fatalf("unknown --workload %q (citations, restaurants, service)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	rep.Correct = rep.Failed == 0

	stamp := stampEnv()
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		stamp.NProc, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit, stamp.Source)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, seconds, trace)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-28s %14.6g ratio (%d of %d operations failed)\n", "fail_rate",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)

	if out != "" {
		if err := appendRecord(out, runRecord{Env: stamp, Workload: o.workload, Seed: o.seed,
			Trace: o.trace, Seconds: seconds, Result: rep.result}); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stampEnv describes the machine and the code a result was measured on.
// The source digest covers every Go source and module file under the
// current directory, so it identifies the code even where there is no git
// checkout.
func stampEnv() env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		Source:     "unknown",
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if sum, err := sourceDigest("."); err == nil {
		e.Source = sum
	}
	return e
}

func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocMiB returns the bytes allocated so far, in MiB.
func allocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
