package harness

import (
	"fmt"
	"sort"

	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
)

// experiment is one reproducible table or figure.
type experiment struct {
	id, title string
	run       func(*Session) *Result
}

// experiments lists every reproduced table and figure in paper order.
var experiments = []experiment{
	{"table1", "SOAPsnp time breakdown by component (paper Table I)", (*Session).Table1},
	{"table2", "Data set characteristics (paper Table II)", (*Session).Table2},
	{"table3", "Hardware counters for likelihood_comp (paper Table III)", (*Session).Table3},
	{"table4", "GSNP time breakdown and speedup vs SOAPsnp (paper Table IV)", (*Session).Table4},
	{"fig4a", "Estimated base_occ access time vs measured component time (paper Fig. 4a)", (*Session).Fig4a},
	{"fig4b", "Sparsity of base_occ: sites by non-zero count (paper Fig. 4b)", (*Session).Fig4b},
	{"fig5", "Likelihood time across representations and processors (paper Fig. 5)", (*Session).Fig5},
	{"fig6", "likelihood_sort vs likelihood_comp, GPU vs CPU (paper Fig. 6)", (*Session).Fig6},
	{"fig7a", "Batch sort throughput by implementation (paper Fig. 7a)", (*Session).Fig7a},
	{"fig7b", "Multipass vs single-pass vs non-equal bitonic (paper Fig. 7b)", (*Session).Fig7b},
	{"fig8", "likelihood_comp kernel optimizations (paper Fig. 8)", (*Session).Fig8},
	{"fig9", "Output size and output speed (paper Fig. 9)", (*Session).Fig9},
	{"fig10a", "Decompression (sequential read) speed (paper Fig. 10a)", (*Session).Fig10a},
	{"fig10b", "Compressed temporary input size (paper Fig. 10b)", (*Session).Fig10b},
	{"fig11", "Time and memory vs window size (paper Fig. 11)", (*Session).Fig11},
	{"fig12", "End-to-end comparison over all 24 chromosomes (paper Fig. 12)", (*Session).Fig12},
	{"ext-threads", "EXTENSION: multi-threaded SOAPsnp scaling (Section VI-A remark)", (*Session).ExtThreads},
	{"ext-accuracy", "EXTENSION: calling accuracy vs sequencing depth (ground truth)", (*Session).ExtAccuracy},
	{"ext-consistency", "EXTENSION: byte-identity of every engine (Section IV-G)", (*Session).ExtConsistency},
	{"ext-device", "EXTENSION: device-configuration sensitivity of the likelihood component", (*Session).ExtDevice},
	{"ext-parallel", "EXTENSION: concurrent chromosome scheduling with byte-identical outputs", (*Session).ExtParallel},
}

// IDs returns the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id.
func (s *Session) Run(id string) (*Result, error) {
	for _, e := range experiments {
		if e.id == id {
			r := e.run(s)
			r.ID = e.id
			r.Title = e.title
			return r, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
}

// Table1 reproduces Table I: the per-component breakdown of the dense
// SOAPsnp baseline on chr1 and chr21.
func (s *Session) Table1() *Result {
	r := &Result{Headers: []string{"dataset", "cal_p", "read", "count", "likeli", "post", "output", "recycle", "total"}}
	for _, name := range []string{"chr1", "chr21"} {
		rep, _ := s.RunSOAPsnp(name)
		tm := rep.Times
		r.AddRow(name, seconds(tm.CalP), seconds(tm.Read), seconds(tm.Count), seconds(tm.Likeli()),
			seconds(tm.Post), seconds(tm.Output), seconds(tm.Recycle), seconds(tm.Total()))

		share := tm.Likeli().Seconds() / tm.Total().Seconds()
		r.Notef("%s: likelihood is %.0f%% of total (paper: ~56%%); recycle ranks %s (paper: 2nd)",
			name, share*100, componentRank(rep, "recycle"))
		p := PaperTable1[name]
		r.Notef("%s: paper reported likeli=%.0fs recycle=%.0fs total=%.0fs on the full-size data",
			name, p["likeli"], p["recycle"], p["total"])
	}
	return r
}

// componentRank reports the rank of a component within the run's
// non-cal_p components.
func componentRank(rep *pipeline.Report, comp string) string {
	vals := map[string]float64{
		"read": rep.Times.Read.Seconds(), "count": rep.Times.Count.Seconds(),
		"likeli": rep.Times.Likeli().Seconds(), "post": rep.Times.Post.Seconds(),
		"output": rep.Times.Output.Seconds(), "recycle": rep.Times.Recycle.Seconds(),
	}
	type kv struct {
		k string
		v float64
	}
	var list []kv
	for k, v := range vals {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	for i, e := range list {
		if e.k == comp {
			return fmt.Sprintf("#%d", i+1)
		}
	}
	return "?"
}

// Table2 reproduces Table II: the data set characteristics.
func (s *Session) Table2() *Result {
	r := &Result{Headers: []string{"dataset", "#sites", "seq.dep", "#reads", "coverage", "input", "output"}}
	for _, name := range []string{"chr1", "chr21"} {
		ds := s.Dataset(name)
		st := ds.Stats()
		inBytes := soapInputSize(ds)
		_, out := s.RunSOAPsnp(name)
		r.AddRow(name,
			fmt.Sprintf("%d", st.Sites),
			fmt.Sprintf("%.1fX", st.Depth),
			fmt.Sprintf("%d", st.Reads),
			fmt.Sprintf("%.0f%%", 100*st.Coverage),
			mb(inBytes), mb(int64(len(out))))
	}
	r.Notef("paper (full size): chr1 = 247M sites, 11X, 44M reads, 88%%, 12 GB in / 17 GB out; chr21 = 47M sites, 9.6X, 6M reads, 68%%, 2 GB / 3 GB")
	r.Notef("scaled at %d sites/Mb; depth, coverage and the output>input relationship carry over", s.Scale.SitesPerMb)
	return r
}

// mb renders a byte count in MB.
func mb(n int64) string {
	return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
}

// Table3 reproduces Table III: simulated hardware counters of the four
// likelihood_comp kernel variants on chr1.
func (s *Session) Table3() *Result {
	r := &Result{Headers: []string{"counter", "baseline", "w/ shared", "w/ new table", "optimized"}}
	ds := s.Dataset("chr1")
	variants := []gsnp.Variant{gsnp.VariantBaseline, gsnp.VariantShared, gsnp.VariantNewTable, gsnp.VariantOptimized}
	type row struct{ inst, gld, gst, sld, sst float64 }
	got := make([]row, len(variants))
	for i, v := range variants {
		rep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Variant: v})
		st := rep.Device.LikeliStats
		got[i] = row{
			inst: st.InstPerWarp(32),
			gld:  float64(st.GlobalLoads),
			gst:  float64(st.GlobalStores),
		}
		got[i].sld, got[i].sst = st.SharedPerWarp(32)
	}
	fmtRow := func(name string, f func(row) float64) {
		cells := []string{name}
		for _, g := range got {
			cells = append(cells, fmt.Sprintf("%.2e", f(g)))
		}
		r.AddRow(cells...)
	}
	fmtRow("#inst. PW", func(g row) float64 { return g.inst })
	fmtRow("#g_load", func(g row) float64 { return g.gld })
	fmtRow("#g_store", func(g row) float64 { return g.gst })
	fmtRow("#s_load PW", func(g row) float64 { return g.sld })
	fmtRow("#s_store PW", func(g row) float64 { return g.sst })

	b, o := got[0], got[3]
	r.Notef("optimized/baseline: inst %.0f%% (paper ~70%%), global accesses %.0f%% (paper ~51%%)",
		100*o.inst/b.inst, 100*(o.gld+o.gst)/(b.gld+b.gst))
	sh := got[1]
	r.Notef("w/ shared reduces g_load to %.0f%% and g_store to %.0f%% of baseline (paper: ~70%% and ~68%%)",
		100*sh.gld/b.gld, 100*sh.gst/b.gst)
	nt := got[2]
	r.Notef("w/ new table reduces inst to %.0f%% and g_load to %.0f%% of baseline (paper: ~73%% and ~64%%)",
		100*nt.inst/b.inst, 100*nt.gld/b.gld)
	return r
}

// Table4 reproduces Table IV: GSNP's per-component times with speedups
// over the SOAPsnp baseline.
func (s *Session) Table4() *Result {
	r := &Result{Headers: []string{"dataset", "cal_p", "read", "count", "likeli", "post", "output", "recycle", "total"}}
	for _, name := range []string{"chr1", "chr21"} {
		base, _ := s.RunSOAPsnp(name)
		ds := s.Dataset(name)
		rep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Compress: true})
		tm := rep.Times
		bt := base.Times
		cell := func(g, b float64) string {
			if b > 0 && g > 0 {
				return fmt.Sprintf("%s(%.0f)", seconds(durationSec(g)), b/g)
			}
			return seconds(durationSec(g))
		}
		r.AddRow(name,
			seconds(tm.CalP),
			cell(tm.Read.Seconds(), bt.Read.Seconds()),
			cell(tm.Count.Seconds(), bt.Count.Seconds()),
			cell(tm.Likeli().Seconds(), bt.Likeli().Seconds()),
			cell(tm.Post.Seconds(), bt.Post.Seconds()),
			cell(tm.Output.Seconds(), bt.Output.Seconds()),
			cell(tm.Recycle.Seconds(), bt.Recycle.Seconds()),
			cell(tm.Total().Seconds(), bt.Total().Seconds()))
		r.Notef("%s: total speedup %.0fx (paper: %.0fx); likelihood %.0fx (paper: %.0fx); recycle %.0fx (paper: %.0fx)",
			name,
			bt.Total().Seconds()/tm.Total().Seconds(), PaperTable4Speedups[name]["total"],
			bt.Likeli().Seconds()/tm.Likeli().Seconds(), PaperTable4Speedups[name]["likeli"],
			bt.Recycle.Seconds()/tm.Recycle.Seconds(), PaperTable4Speedups[name]["recycle"])
	}
	r.Notef("cells show seconds(speedup vs SOAPsnp); GPU components are simulated device time")
	return r
}
