package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one end_to_end entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"       // no resolved gain, and no loss beyond the bound
	unresolved = "unresolved" // the old runs spread wider than the bound
)

// judgement compares the runs of one metric on one workload.
type judgement struct {
	oldMedian, oldIQR float64
	newMedian, newIQR float64
	// change is the relative change of the medians, signed so that a
	// positive value is a loss whichever direction is better.
	change      float64
	wins, pairs int
	verdict     string
}

// judge applies the benchmark's rule. A gain ("better") needs the new
// runs to win at least nine tenths of the pairs (the i-th old run against
// the i-th new run, ties counting for neither) and the medians to differ
// by more than the old runs' interquartile range — or every new run to
// beat every old run. Otherwise, when the old runs' relative IQR exceeds
// the bound the comparison is "unresolved"; a median loss beyond the
// bound is "worse"; anything else is "same".
func judge(old, cur []float64, lowerIsBetter bool, bound float64) judgement {
	j := judgement{
		oldMedian: median(old), oldIQR: iqr(old),
		newMedian: median(cur), newIQR: iqr(cur),
	}
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	j.change = sign * (j.newMedian - j.oldMedian) / math.Abs(j.oldMedian)
	if j.oldMedian == 0 {
		j.change = 0
		if j.newMedian != 0 {
			j.change = sign * math.Copysign(math.Inf(1), j.newMedian)
		}
	}
	betterThan := func(a, b float64) bool { return sign*(a-b) < 0 }
	j.pairs = min(len(old), len(cur))
	for i := 0; i < j.pairs; i++ {
		if betterThan(cur[i], old[i]) {
			j.wins++
		}
	}
	allBetter := len(old) > 0 && len(cur) > 0
	for _, c := range cur {
		for _, o := range old {
			allBetter = allBetter && betterThan(c, o)
		}
	}
	switch {
	case allBetter,
		j.pairs > 0 && 10*j.wins >= 9*j.pairs && math.Abs(j.newMedian-j.oldMedian) > j.oldIQR && j.change < 0:
		j.verdict = better
	case j.oldIQR > bound*math.Abs(j.oldMedian):
		j.verdict = unresolved
	case j.change > bound:
		j.verdict = worse
	default:
		j.verdict = same
	}
	return j
}

// compareMain implements `compare old.jsonl new.jsonl`: for every workload
// in both files and every end-to-end metric of BENCHMARK.json, it prints
// both sides' median and IQR and the verdict. It exits 1 when any verdict
// is "worse".
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	oldBy, curBy := byWorkload(old), byWorkload(cur)
	var names []string
	for name := range oldBy {
		if _, ok := curBy[name]; ok {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(a, b int) bool { return workloadRank(names[a]) < workloadRank(names[b]) })

	fmt.Fprintf(w, "%-12s %-22s %12s %10s %12s %10s %8s %6s %7s  %s\n",
		"workload", "metric", "old median", "old IQR", "new median", "new IQR", "change", "bound", "wins", "verdict")
	worst := 0
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			o, c := metricValues(oldBy[name], m.Name), metricValues(curBy[name], m.Name)
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			j := judge(o, c, m.Better == "lower", m.Bound)
			change := (j.newMedian - j.oldMedian) / math.Abs(j.oldMedian)
			fmt.Fprintf(w, "%-12s %-22s %12.5g %10.3g %12.5g %10.3g %+7.1f%% %5.0f%% %3d/%-3d  %s\n",
				name, m.Name, j.oldMedian, j.oldIQR, j.newMedian, j.newIQR, 100*change, 100*m.Bound, j.wins, j.pairs, j.verdict)
			if j.verdict == worse {
				worst = 1
			}
		}
	}
	return worst
}

func byWorkload(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

// workloadRank orders known workloads as the catalogue does, unknown ones
// after them.
func workloadRank(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}

// metricValues returns one metric's value per run, in file order.
func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
