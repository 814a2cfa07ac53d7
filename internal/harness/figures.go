package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/compress"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
	"gsnp/internal/sortnet"
)

// durationSec converts float seconds to a Duration.
func durationSec(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// soapInputSize measures the SOAP alignment text size of a dataset.
func soapInputSize(ds *seqsim.Dataset) int64 {
	cw := &countWriter{}
	if err := snpio.WriteSOAP(cw, ds.Spec.Name, ds.Reads); err != nil {
		panic(err)
	}
	return cw.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Fig4a reproduces Figure 4(a): the Formula-1 estimate of base_occ memory
// access time against the measured likelihood and recycle times of the
// dense baseline.
func (s *Session) Fig4a() *Result {
	r := &Result{Headers: []string{"dataset", "estimated (s)", "likelihood (s)", "est/likeli", "recycle (s)", "est/recycle"}}
	bw := MeasureCPUBandwidth()
	for _, name := range []string{"chr1", "chr21"} {
		rep, _ := s.RunSOAPsnp(name)
		est := float64(rep.Sites) * float64(bayes.BaseOccSize) / bw
		li := rep.Times.Likeli().Seconds()
		re := rep.Times.Recycle.Seconds()
		r.AddRow(name, fmt.Sprintf("%.2f", est), fmt.Sprintf("%.2f", li),
			fmt.Sprintf("%.0f%%", 100*est/li), fmt.Sprintf("%.2f", re), fmt.Sprintf("%.0f%%", 100*est/re))
	}
	r.Notef("B_cpu measured at %.1f GB/s; paper measured 4.2 GB/s on its Xeon", bw/1e9)
	r.Notef("paper: estimate covers 65-70%% of likelihood and 89-92%% of recycle; here the sweep does" +
		" nothing for an empty 64-byte group but load it, so likelihood lands at the estimate, while" +
		" recycle is a memset at a multiple of the read rate plus the one-off first touch of the" +
		" fresh 512 MB window, which a run of few windows (chr21) does not amortise")
	return r
}

// Fig4b reproduces Figure 4(b): the percentage of sites by number of
// non-zero base_occ elements.
func (s *Session) Fig4b() *Result {
	r := &Result{Headers: []string{"non-zero elements", "chr1 sites %", "chr21 sites %"}}
	hists := map[string][]int64{}
	totals := map[string]int64{}
	for _, name := range []string{"chr1", "chr21"} {
		rep, _ := s.RunSOAPsnp(name)
		hists[name] = rep.NonZeroHist
		for _, c := range rep.NonZeroHist {
			totals[name] += c
		}
	}
	buckets := [][2]int{{0, 0}, {1, 5}, {6, 10}, {11, 15}, {16, 20}, {21, 30}, {31, 50}, {51, 100}, {101, 256}}
	for _, b := range buckets {
		label := fmt.Sprintf("%d-%d", b[0], b[1])
		if b[0] == b[1] {
			label = fmt.Sprintf("%d", b[0])
		}
		cells := []string{label}
		for _, name := range []string{"chr1", "chr21"} {
			var n int64
			for k := b[0]; k <= b[1] && k < len(hists[name]); k++ {
				n += hists[name][k]
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*float64(n)/float64(totals[name])))
		}
		r.AddRow(cells...)
	}
	for _, name := range []string{"chr1", "chr21"} {
		var weighted, n int64
		for k, c := range hists[name] {
			weighted += int64(k) * c
			n += c
		}
		mean := float64(weighted) / float64(n)
		r.Notef("%s: mean non-zero count %.1f of %d elements = %.4f%% (paper: up to ~0.08%% at <=100X depth)",
			name, mean, bayes.BaseOccSize, 100*mean/float64(bayes.BaseOccSize))
	}
	return r
}

// Fig5 reproduces Figure 5: likelihood time under the four
// representation/processor combinations.
func (s *Session) Fig5() *Result {
	r := &Result{Headers: []string{"dataset", "SOAPsnp (CPU dense)", "GPU dense", "GSNP_CPU (sparse)", "GSNP (GPU sparse)"}}
	for _, name := range []string{"chr1", "chr21"} {
		base, _ := s.RunSOAPsnp(name)
		ds := s.Dataset(name)
		cpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeCPU})
		gpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU})

		denseSec := s.denseGPUSeconds(ds)
		soap := base.Times.Likeli().Seconds()
		cpuS := cpuRep.Times.Likeli().Seconds()
		gpuS := gpuRep.Times.Likeli().Seconds()
		r.AddRow(name,
			fmt.Sprintf("%.2f s", soap),
			fmt.Sprintf("%.2f s", denseSec),
			fmt.Sprintf("%.2f s", cpuS),
			fmt.Sprintf("%.3f s", gpuS))
		r.Notef("%s: GSNP_CPU vs SOAPsnp %s (paper ~4-5x); GSNP vs GSNP_CPU %s (paper ~30x); GPU dense vs GSNP %s slower (paper 14-17x)",
			name, ratio(soap, cpuS), ratio(cpuS, gpuS), ratio(denseSec, gpuS))
	}
	r.Notef("GPU dense simulated over a site sample and scaled linearly (the dense scan cost is exactly proportional to site count)")
	return r
}

// denseGPUSeconds simulates the dense-representation GPU likelihood on a
// sample of sites and extrapolates to the dataset (the scan cost per site
// is constant by construction: 131,072 loads regardless of content).
func (s *Session) denseGPUSeconds(ds *seqsim.Dataset) float64 {
	const sample = 512
	n := len(ds.Ref.Seq)
	words := buildWindowWords(ds, sample)
	d := gpu.NewDevice(gpu.M2050())
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	gNewP := gpu.Alloc[float64](d, len(tables.NewP))
	defer gNewP.Free()
	gNewP.CopyIn(tables.NewP)
	cAdj, err := gpu.NewConst(d, tables.Adjust[:])
	if err != nil {
		panic(err)
	}
	defer cAdj.Free()
	before := d.SimTime()
	gsnp.DenseGPULikelihood(d, tables, ds.ReadSpec.ReadLen, words, gNewP, cAdj)
	perSite := (d.SimTime() - before) / float64(words.NumArrays())
	return perSite * float64(n)
}

// buildWindowWords extracts the per-site sorted base_word arrays of the
// first maxSites sites of a dataset.
func buildWindowWords(ds *seqsim.Dataset, maxSites int) *sortnet.Batches {
	n := len(ds.Ref.Seq)
	if maxSites > 0 && maxSites < n {
		n = maxSites
	}
	sizes := make([]int32, n+1)
	type obsRec struct {
		site int
		word uint32
	}
	var obs []obsRec
	for i := range ds.Reads {
		rd := &ds.Reads[i]
		for pos := rd.Pos; pos < rd.Pos+len(rd.Bases) && pos < n; pos++ {
			o, ok := pipeline.ObsOf(rd, pos)
			if !ok {
				continue
			}
			obs = append(obs, obsRec{pos, gsnp.PackWord(o)})
			sizes[pos+1]++
		}
	}
	b := &sortnet.Batches{Bounds: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		b.Bounds[i+1] = b.Bounds[i] + sizes[i+1]
	}
	b.Data = make([]uint32, len(obs))
	cursor := make([]int32, n)
	for _, o := range obs {
		b.Data[b.Bounds[o.site]+cursor[o.site]] = o.word
		cursor[o.site]++
	}
	return b
}

// Fig6 reproduces Figure 6: the sort and compute halves of the sparse
// likelihood on GPU and CPU.
func (s *Session) Fig6() *Result {
	r := &Result{Headers: []string{"dataset", "step", "GPU (s)", "CPU (s)", "speedup"}}
	for _, name := range []string{"chr1", "chr21"} {
		ds := s.Dataset(name)
		gpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU})
		cpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeCPU})
		gs, cs := gpuRep.Times.LikeliSort.Seconds(), cpuRep.Times.LikeliSort.Seconds()
		gc, cc := gpuRep.Times.LikeliComp.Seconds(), cpuRep.Times.LikeliComp.Seconds()
		r.AddRow(name, "likelihood_sort", fmt.Sprintf("%.4f", gs), fmt.Sprintf("%.4f", cs), ratio(cs, gs))
		r.AddRow(name, "likelihood_comp", fmt.Sprintf("%.4f", gc), fmt.Sprintf("%.4f", cc), ratio(cc, gc))
	}
	r.Notef("paper: sort speeds up ~22x and compute ~40x; bitonic's higher complexity keeps the sort speedup below the compute speedup")
	return r
}

// Fig7a reproduces Figure 7(a): batch sort throughput on randomly
// generated equal-sized arrays for the three implementations.
func (s *Session) Fig7a() *Result {
	r := &Result{Headers: []string{"batch array size", "CPU qsort (Melem/s)", "GPU batch bitonic (Melem/s)", "GPU radix per-array (Melem/s)"}}
	rng := rand.New(rand.NewSource(s.Scale.Seed))
	for _, size := range []int{16, 32, 64, 128, 256} {
		numArrays := 1 << 16 / size * 8 // ~512K elements
		mk := func(n int) *sortnet.Batches {
			b := &sortnet.Batches{Bounds: make([]int32, 1, n+1)}
			for i := 0; i < n; i++ {
				for k := 0; k < size; k++ {
					b.Data = append(b.Data, rng.Uint32()&0x1FFFF)
				}
				b.Bounds = append(b.Bounds, int32(len(b.Data)))
			}
			return b
		}

		cpuB := mk(numArrays)
		start := time.Now()
		sortnet.ParallelQuicksort(cpuB, 0)
		cpuThr := float64(len(cpuB.Data)) / time.Since(start).Seconds() / 1e6

		d := gpu.NewDevice(gpu.M2050())
		gpuB := mk(numArrays)
		st := sortnet.SinglePassBitonic(d, gpuB) // equal sizes: one class
		gpuThr := float64(len(gpuB.Data)) / st.SimSeconds / 1e6

		radixB := mk(64) // per-array radix is slow; throughput is per element anyway
		sr := sortnet.SequentialRadixGPU(d, radixB, 17)
		radixThr := float64(len(radixB.Data)) / sr.SimSeconds / 1e6

		r.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f", cpuThr), fmt.Sprintf("%.1f", gpuThr), fmt.Sprintf("%.2f", radixThr))
	}
	r.Notef("paper: GPU batch bitonic ~1.5x the 16-thread CPU sort; per-array radix has very low throughput; throughput decreases as arrays grow")
	return r
}

// Fig7b reproduces Figure 7(b): the three schemes for sorting the
// variable-sized base_word arrays of a real window.
func (s *Session) Fig7b() *Result {
	r := &Result{Headers: []string{"scheme", "sim time (s)", "elements sorted", "vs multipass"}}
	ds := s.Dataset("chr1")
	limit := len(ds.Ref.Seq)
	if limit > 131072 {
		limit = 131072
	}
	orig := buildWindowWords(ds, limit)
	clone := func() *sortnet.Batches {
		return &sortnet.Batches{
			Data:   append([]uint32(nil), orig.Data...),
			Bounds: orig.Bounds,
		}
	}
	d := gpu.NewDevice(gpu.M2050())
	mp := sortnet.MultipassBitonic(d, clone())
	sp := sortnet.SinglePassBitonic(d, clone())
	ne := sortnet.NonEqBitonic(d, clone())
	add := func(name string, st sortnet.Stats) {
		r.AddRow(name, fmt.Sprintf("%.5f", st.SimSeconds),
			fmt.Sprintf("%d", st.ElementsSorted), ratio(st.SimSeconds, mp.SimSeconds))
	}
	add("bitonic MP (multipass)", mp)
	add("bitonic SP (single pass)", sp)
	add("bitonic noneq", ne)
	r.Notef("single pass sorts %.1fx the elements of multipass (paper: ~4x) and runs %.1fx slower (paper: ~5x)",
		float64(sp.ElementsSorted)/float64(mp.ElementsSorted), sp.SimSeconds/mp.SimSeconds)
	return r
}

// Fig8 reproduces Figure 8: likelihood_comp time under the four kernel
// variants.
func (s *Session) Fig8() *Result {
	r := &Result{Headers: []string{"dataset", "baseline", "w/ shared", "w/ new table", "optimized", "opt speedup"}}
	for _, name := range []string{"chr1", "chr21"} {
		ds := s.Dataset(name)
		times := map[gsnp.Variant]float64{}
		for _, v := range []gsnp.Variant{gsnp.VariantBaseline, gsnp.VariantShared, gsnp.VariantNewTable, gsnp.VariantOptimized} {
			rep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Variant: v})
			times[v] = rep.Times.LikeliComp.Seconds()
		}
		b := times[gsnp.VariantBaseline]
		r.AddRow(name,
			fmt.Sprintf("%.4f s", b),
			fmt.Sprintf("%.4f s (%.0f%%)", times[gsnp.VariantShared], 100*times[gsnp.VariantShared]/b),
			fmt.Sprintf("%.4f s (%.0f%%)", times[gsnp.VariantNewTable], 100*times[gsnp.VariantNewTable]/b),
			fmt.Sprintf("%.4f s", times[gsnp.VariantOptimized]),
			ratio(b, times[gsnp.VariantOptimized]))
		r.Notef("%s: paper reports shared-only at ~55%% and new-table-only at ~78%% of baseline, optimized ~2.4x faster", name)
	}
	return r
}

// paperDiskBandwidth is the sequential disk rate of the paper's testbed
// (Section VI-A: ~90 MB/s), used to model the I/O leg of the output and
// decompression experiments — a modern host's page cache would otherwise
// hide the effect the paper measures.
const paperDiskBandwidth = 90e6

// Fig9 reproduces Figure 9: output size and output speed for plain text,
// gzip and the GSNP compressed container. Output time = the engine's
// output component (formatting / compression) + bytes written at the
// paper's 90 MB/s disk rate.
func (s *Session) Fig9() *Result {
	r := &Result{Headers: []string{"dataset", "variant", "size", "vs GSNP", "output time (s)", "speedup vs plain"}}
	for _, name := range []string{"chr1", "chr21"} {
		base, text := s.RunSOAPsnp(name)
		ds := s.Dataset(name)

		// Plain text: SOAPsnp's formatting time + text bytes to disk.
		plainSec := base.Times.Output.Seconds() + float64(len(text))/paperDiskBandwidth

		// gzip: formatting + gzip compression + compressed bytes to disk.
		t0 := time.Now()
		gz, err := compress.Gzip(text)
		if err != nil {
			panic(err)
		}
		gzSec := base.Times.Output.Seconds() + time.Since(t0).Seconds() + float64(len(gz))/paperDiskBandwidth

		// GSNP: row assembly + device compression + compressed bytes.
		rep, blob := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Compress: true})
		gsnpSec := rep.Times.Output.Seconds() + float64(len(blob))/paperDiskBandwidth

		g := float64(len(blob))
		r.AddRow(name, "SOAPsnp text", mb(int64(len(text))), ratio(float64(len(text)), g), fmt.Sprintf("%.4f", plainSec), "1.0x")
		r.AddRow(name, "SOAPsnp + gzip", mb(int64(len(gz))), ratio(float64(len(gz)), g), fmt.Sprintf("%.4f", gzSec), ratio(plainSec, gzSec))
		r.AddRow(name, "GSNP", mb(int64(len(blob))), "1.0x", fmt.Sprintf("%.4f", gsnpSec), ratio(plainSec, gsnpSec))
		r.Notef("%s: text/GSNP size ratio %.1fx (paper: 14-16x), gzip/GSNP %.1fx (paper: ~1.5x); GSNP output %.1fx faster than plain (paper: 13-15x)",
			name, float64(len(text))/g, float64(len(gz))/g, plainSec/gsnpSec)
	}
	r.Notef("disk legs modelled at the paper's 90 MB/s sequential rate; compression/formatting legs measured (gzip on the host CPU, GSNP columns on the simulated device)")
	return r
}

// Fig10a reproduces Figure 10(a): sequential-read (decompression) speed of
// the three output formats.
func (s *Session) Fig10a() *Result {
	r := &Result{Headers: []string{"dataset", "variant", "read+decode time (s)", "logical MB/s", "speedup vs plain"}}
	for _, name := range []string{"chr1", "chr21"} {
		_, text := s.RunSOAPsnp(name)
		ds := s.Dataset(name)
		_, blob := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeCPU, Compress: true})
		gz, err := compress.Gzip(text)
		if err != nil {
			panic(err)
		}
		logicalMB := float64(len(text)) / (1 << 20)

		t0 := time.Now()
		rows, err := snpio.ReadResults(bytes.NewReader(text))
		if err != nil {
			panic(err)
		}
		plainSec := time.Since(t0).Seconds() + float64(len(text))/paperDiskBandwidth

		t0 = time.Now()
		raw, err := compress.Gunzip(gz)
		if err != nil {
			panic(err)
		}
		if _, err := snpio.ReadResults(bytes.NewReader(raw)); err != nil {
			panic(err)
		}
		gzSec := time.Since(t0).Seconds() + float64(len(gz))/paperDiskBandwidth

		t0 = time.Now()
		rows2, err := snpio.ReadAllBlocks(bytes.NewReader(blob))
		if err != nil {
			panic(err)
		}
		gsnpSec := time.Since(t0).Seconds() + float64(len(blob))/paperDiskBandwidth
		if len(rows2) != len(rows) {
			panic("fig10a: row count mismatch")
		}

		r.AddRow(name, "SOAPsnp text", fmt.Sprintf("%.4f", plainSec), fmt.Sprintf("%.0f", logicalMB/plainSec), "1.0x")
		r.AddRow(name, "gzip", fmt.Sprintf("%.4f", gzSec), fmt.Sprintf("%.0f", logicalMB/gzSec), ratio(plainSec, gzSec))
		r.AddRow(name, "GSNP", fmt.Sprintf("%.4f", gsnpSec), fmt.Sprintf("%.0f", logicalMB/gsnpSec), ratio(plainSec, gsnpSec))
	}
	r.Notef("paper: reading GSNP output is ~40x faster than plain text and ~6x faster than gzip; disk legs modelled at the paper's 90 MB/s, decode legs measured in memory")
	return r
}

// Fig10b reproduces Figure 10(b): the compressed temporary input size.
func (s *Session) Fig10b() *Result {
	r := &Result{Headers: []string{"dataset", "original input", "GSNP temp input", "ratio", "gzip", "gzip ratio"}}
	for _, name := range []string{"chr1", "chr21"} {
		ds := s.Dataset(name)
		var soap bytes.Buffer
		if err := snpio.WriteSOAP(&soap, ds.Spec.Name, ds.Reads); err != nil {
			panic(err)
		}
		var tmp bytes.Buffer
		tw := snpio.NewTempWriter(&tmp, ds.Spec.Name)
		for i := range ds.Reads {
			if err := tw.Write(&ds.Reads[i]); err != nil {
				panic(err)
			}
		}
		if err := tw.Flush(); err != nil {
			panic(err)
		}
		gz, err := compress.Gzip(soap.Bytes())
		if err != nil {
			panic(err)
		}
		r.AddRow(name, mb(int64(soap.Len())), mb(int64(tmp.Len())),
			fmt.Sprintf("%.0f%%", 100*float64(tmp.Len())/float64(soap.Len())),
			mb(int64(len(gz))), fmt.Sprintf("%.0f%%", 100*float64(len(gz))/float64(soap.Len())))
	}
	r.Notef("paper: compressed input ~1/3 of the original, comparable to gzip (gzip slightly better on the more general input data)")
	return r
}

// Fig11 reproduces Figure 11: elapsed time and memory consumption as the
// window size varies on chr1.
func (s *Session) Fig11() *Result {
	r := &Result{Headers: []string{"window (sites)", "total time (s)", "device memory", "vs largest window"}}
	ds := s.Dataset("chr1")
	n := len(ds.Ref.Seq)
	wins := []int{n / 32, n / 16, n / 8, n / 4, n / 2, n}
	var largest float64
	type row struct {
		win  int
		sec  float64
		memB int64
	}
	var rows []row
	for _, win := range wins {
		rep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Window: win, Compress: true})
		rows = append(rows, row{win, rep.Times.Total().Seconds(), rep.Device.PeakDeviceBytes})
	}
	largest = rows[len(rows)-1].sec
	for _, rw := range rows {
		r.AddRow(fmt.Sprintf("%d", rw.win), fmt.Sprintf("%.3f", rw.sec), mb(rw.memB), ratio(rw.sec, largest))
	}
	r.Notef("paper: time rises sharply below ~128K sites (per-window overhead, underutilised hardware) and is flat beyond ~256K; memory grows with the window")
	r.Notef("window sizes here are fractions of the scaled chr1 (%d sites); the paper's absolute knee depends on data size", n)
	return r
}

// Fig12 reproduces Figure 12: end-to-end times for SOAPsnp, GSNP_CPU and
// GSNP over all 24 chromosomes. It runs at a reduced scale: the dense
// baseline over a whole genome is the expensive part, exactly as in the
// paper.
func (s *Session) Fig12() *Result {
	r := &Result{Headers: []string{"chromosome", "SOAPsnp (s)", "GSNP_CPU (s)", "GSNP (s)", "GSNP speedup"}}
	scale := s.Scale.SitesPerMb / 8
	if scale < 20 {
		scale = 20
	}
	var totSoap, totCPU, totGPU float64
	dev := gpu.NewDevice(gpu.M2050())
	minSpeedup := 0.0
	for _, spec := range seqsim.ScaledHumanGenome(scale, s.Scale.Seed) {
		ds := seqsim.BuildDataset(spec)
		soapRep, _ := run(ds, pipeline.Config{Window: soapsnp.DefaultWindow}, soapsnp.New(soapsnp.Config{}))
		cpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeCPU, Compress: true})
		gpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Compress: true, Device: dev})

		so := soapRep.Times.Total().Seconds()
		cp := cpuRep.Times.Total().Seconds()
		gp := gpuRep.Times.Total().Seconds()
		totSoap += so
		totCPU += cp
		totGPU += gp
		sp := so / gp
		if minSpeedup == 0 || sp < minSpeedup {
			minSpeedup = sp
		}
		r.AddRow(spec.Name, fmt.Sprintf("%.2f", so), fmt.Sprintf("%.2f", cp), fmt.Sprintf("%.2f", gp), fmt.Sprintf("%.0fx", sp))
	}
	r.AddRow("TOTAL", fmt.Sprintf("%.1f", totSoap), fmt.Sprintf("%.1f", totCPU), fmt.Sprintf("%.1f", totGPU), fmt.Sprintf("%.0fx", totSoap/totGPU))
	r.Notef("whole-genome total speedup %.0fx, minimum per-chromosome %.0fx (paper: at least 40x everywhere; 3 days -> 2 hours)",
		totSoap/totGPU, minSpeedup)
	r.Notef("run at %d sites/Mb (reduced from the session's %d: the dense baseline dominates this experiment's cost)", scale, s.Scale.SitesPerMb)
	return r
}
