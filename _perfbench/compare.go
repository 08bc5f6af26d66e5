package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles compares the untraced runs of two --out files workload by
// workload, using the bounds in ./BENCHMARK.json. It refuses when any two
// records were measured with a different CPU count or GOMAXPROCS.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sides := [2][]runRecord{}
	for i, path := range []string{oldPath, newPath} {
		if sides[i], err = readRecords(path); err != nil {
			return err
		}
	}
	var first *env
	for _, side := range sides {
		for _, r := range side {
			if first == nil {
				first = &r.Env
			}
			if r.Env.NProc != first.NProc || r.Env.GOMAXPROCS != first.GOMAXPROCS {
				return fmt.Errorf("refusing to compare: nproc/GOMAXPROCS %d/%d vs %d/%d",
					first.NProc, first.GOMAXPROCS, r.Env.NProc, r.Env.GOMAXPROCS)
			}
		}
	}

	values := func(side []runRecord, workload, name string) []float64 {
		var xs []float64
		for _, r := range side {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	workloads := map[string]bool{}
	for _, side := range sides {
		for _, r := range side {
			workloads[r.Workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %9s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			a, b := values(sides[0], wl, m.Name), values(sides[1], wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			oldMed, newMed := median(a), median(b)
			worse := ratio(newMed-oldMed, oldMed)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := ratio(quantile(a, 0.75)-quantile(a, 0.25), oldMed)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (old spread %.3f)", spread)
			case worse > m.Bound:
				verdict = "REGRESSED"
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+8.1f%% %6.2f  %s (n=%d/%d)\n",
				wl, m.Name, oldMed, newMed, 100*worse, m.Bound, verdict, len(a), len(b))
		}
	}
	return nil
}
