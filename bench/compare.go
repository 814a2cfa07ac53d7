package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// verdict judges one gated end-to-end metric on one workload from the
// values two sets of runs measured. It returns "better", "within", "worse"
// or "unresolved" with the worsening of the median and the wider of the
// two sets' spreads, both as a share of the old median (positive is worse).
//
// A spread wider than the bound cannot resolve a change of the bound's
// size, so the verdict is then "unresolved" — unless every new value lies
// on one side of every old value, which no spread explains. setup_s is
// judged by its medians alone, as the PR driver judges it: a run sets up
// three times where it repeats a workload eight, and its spread is wide.
func verdict(d metricDef, old, new []float64) (v string, worsening, spread float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		if mn == 0 {
			return "within", 0, 0
		}
		return "unresolved", math.Inf(1), 0
	}
	worsening = (mn - mo) / math.Abs(mo)
	if d.Better == "higher" {
		worsening = -worsening
	}
	spread = math.Max(iqr(old), iqr(new)) / math.Abs(mo)
	if spread > d.Bound && d.Name != "setup_s" {
		lo, hi := minMax(old)
		nlo, nhi := minMax(new)
		newBelow, newAbove := nhi < lo, nlo > hi
		if d.Better == "higher" {
			newBelow, newAbove = newAbove, newBelow // "below" means better
		}
		switch {
		case newBelow:
			return "better", worsening, spread
		case newAbove && worsening > d.Bound:
			return "worse", worsening, spread
		}
		return "unresolved", worsening, spread
	}
	return judge(worsening, d.Bound), worsening, spread
}

func judge(worsening, bound float64) string {
	switch {
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "within"
}

// sameSeedVerdict judges a metric that repeats exactly for a seed
// (failed_share, sensitivity, precision): the runs of the two sets are
// paired by seed and the pair that worsened most decides, against the
// metric's absolute bound. It returns that worsening and the number of
// pairs; with no seed in common there is nothing to judge.
func sameSeedVerdict(d metricDef, old, new map[int64]float64) (v string, worsening float64, pairs int) {
	worsening = math.Inf(-1)
	for seed, o := range old {
		n, ok := new[seed]
		if !ok {
			continue
		}
		pairs++
		w := n - o
		if d.Better == "higher" {
			w = -w
		}
		worsening = math.Max(worsening, w)
	}
	if pairs == 0 {
		return "unresolved", 0, 0
	}
	return judge(worsening, d.Bound), worsening, pairs
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// values collects one metric of one workload over a file's runs, traced
// or untraced.
func (f *resultsFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// bySeed is values for the untraced runs, keyed by seed.
func (f *resultsFile) bySeed(workload, metric string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// compare prints one row per metric × workload and returns how many rows
// are "worse" and how many "unresolved". Gated metrics are read from the
// untraced runs, and a metric a workload does not report has no row; per-
// layer metrics, which have no bound, are printed from the traced runs
// without a verdict.
func compare(w io.Writer, c *contract, old, new *resultsFile) (worse, unresolved int) {
	count := func(v string) {
		switch v {
		case "worse":
			worse++
		case "unresolved":
			unresolved++
		}
	}
	const row = "%-22s %-32s %14.6g %14.6g %+9.3g %7.3g %7.3g  %s\n"
	fmt.Fprintf(w, "%-22s %-32s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	for _, name := range c.workloadNames() {
		for _, d := range c.EndToEnd {
			o, n := old.values(name, d.Name, false), new.values(name, d.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, worsening, spread := verdict(d, o, n)
			count(v)
			fmt.Fprintf(w, row, name, d.Name, median(o), median(n), worsening*100, d.Bound*100, spread*100, fmt.Sprintf("%s (n=%d,%d)", v, len(o), len(n)))
		}
		for _, d := range sameSeed {
			o, n := old.values(name, d.Name, false), new.values(name, d.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, worsening, pairs := sameSeedVerdict(d, old.bySeed(name, d.Name), new.bySeed(name, d.Name))
			count(v)
			fmt.Fprintf(w, row, name, d.Name, median(o), median(n), worsening, d.Bound, 0.0, fmt.Sprintf("%s (worst of %d same-seed pairs)", v, pairs))
		}
		for _, d := range c.PerLayer {
			o, n := old.values(name, d.Name, true), new.values(name, d.Name, true)
			if len(o) == 0 || len(n) == 0 || (median(o) == 0 && median(n) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-22s %-32s %14.6g %14.6g %9s %7s %7s  - (n=%d,%d)\n", name, d.Name, median(o), median(n), "", "", "", len(o), len(n))
		}
	}
	return worse, unresolved
}

func compareMain(c *contract, args []string) error {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return errUsage
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	new, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s  %d CPUs  %s\nnew: %s  commit %s  %d CPUs  %s\n",
		args[0], old.Host.Commit, old.Host.NumCPU, old.Host.CPUModel, args[1], new.Host.Commit, new.Host.NumCPU, new.Host.CPUModel)
	fmt.Println("change, bound and spread are % of the old median; for failed_share, sensitivity and precision they are absolute, of the same-seed pair that worsened most; positive change is worse")
	worse, unresolved := compare(os.Stdout, c, old, new)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return errWorse
	}
	return nil
}
