package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare needs: each
// end-to-end metric's direction and the share of the old median by which
// it may get worse.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runSet is the untraced runs of one results file, grouped by workload.
type runSet struct {
	values   map[string]map[string][]float64 // workload → metric → one value per run
	failed   map[string]int
	attempts map[string]int
}

func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}, attempts: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], m.Value)
		}
		rs.failed[rec.Workload] += rec.Failed
		rs.attempts[rec.Workload] += rec.Attempted
	}
	return rs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 when there are too few runs to have quartiles.
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles(n=4).
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := max(0, min(int(pos), len(s)-2))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row is worse or any workload failed a larger share
// of its ops. Every ratio is printed with its base, the old median.
func compareFiles(out io.Writer, oldPath, newPath string) (worse bool, err error) {
	b, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	older, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	newer, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "spread", "bound", "verdict")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			ov, nv := older.values[w.Name][m.Name], newer.values[w.Name][m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(out, "%-14s %-20s missing from one side\n", w.Name, m.Name)
				continue
			}
			om, nm := median(ov), median(nv)
			osp, nsp := spread(ov), spread(nv)
			change := nm/om - 1 // positive = larger
			if m.Better == "higher" {
				change = -change
			} // positive = worse
			verdict := "within bound"
			switch {
			case max(osp, nsp) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			case -change > max(osp, nsp) && change < 0:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-14s %-20s %14.4f %14.4f %8.4f %6.1f%% %6.1f%% %5.0f%%  %s (n=%d/%d, %s)\n",
				w.Name, m.Name, om, nm, nm/om, 100*osp, 100*nsp, 100*m.Bound, verdict, len(ov), len(nv), m.Unit)
		}
		oshare := ratio(older.failed[w.Name], older.attempts[w.Name])
		nshare := ratio(newer.failed[w.Name], newer.attempts[w.Name])
		if nshare > oshare {
			worse = true
			fmt.Fprintf(out, "%-14s %-20s %14.6f %14.6f  worse: more ops failed\n", w.Name, "error_share", oshare, nshare)
		}
	}
	return worse, nil
}
