package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// probeReport is what the layerprobe child prints: leaf-package metrics,
// the spans it recorded around each call, and — when asked to replay the
// alignment stage of a FASTQ directory — the seconds each unit spent in
// FASTQ parsing, index build and read placement, which `gsnp -stats` does
// not print.
type probeReport struct {
	Metrics map[string]float64            `json:"metrics"`
	Spans   []span                        `json:"spans"`
	Units   map[string]map[string]float64 `json:"units"`
}

// runLayerprobe generates chr1 inputs from the seed, calls them once for
// the rows the output probes replay, and runs the layer tier over them.
// The layer tier imports the program's packages; when a refactor has
// changed an API it calls, it no longer builds, and the run goes on
// without its metrics (they read 0) after saying so.
func runLayerprobe(ctx context.Context, e *env, seed int64, res *runResult, tr *tracer, probes []string, alignDir string) (*probeReport, error) {
	if err := e.buildLayerprobe(ctx); err != nil {
		e.logf("WARNING: layer tier skipped, its metrics read 0: %v", err)
		return &probeReport{}, nil
	}
	dir := filepath.Join(e.workDir, "probe")
	if err := e.gen(ctx, dir, seed, "-chr", "chr1", "-fastq", "-scale", fmt.Sprint(batchScale)); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, "chr1")
	if cr, err := runChild(ctx, e.bin("gsnp"), "-ref", stem+".fa", "-aln", stem+".soap", "-engine", "gsnp-cpu", "-out", stem+".result"); err != nil || cr.Exit != 0 {
		return nil, fmt.Errorf("probe rows: exit %d: %s %v", cr.Exit, lastLine(cr.Stderr), err)
	}
	args := []string{"-stem", stem, "-work", filepath.Join(e.workDir, "probe-work"), "-seed", fmt.Sprint(seed),
		"-probes", strings.Join(probes, ",")}
	if alignDir != "" {
		args = append(args, "-align-dir", alignDir)
	}
	cmd := exec.CommandContext(ctx, e.bin("layerprobe"), args...)
	cmd.Stderr = e.log
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layerprobe: %w", err)
	}
	var rep probeReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("layerprobe output: %w", err)
	}
	for name, v := range rep.Metrics {
		res.set(name, v, 1)
	}
	tr.merge(tr.add(0, "layerprobe", "bench", "", start, time.Now()), rep.Spans)
	return &rep, nil
}

// enginePrefix is the per-layer prefix of an engine's stage rows.
func enginePrefix(engine string) string {
	if engine == "soapsnp" {
		return "soapsnp"
	}
	return "gsnp"
}

// batchLayers turns the traced pass of a batch workload into per-layer
// metrics and spans: stage rows from the serial -stats run, the scheduler's
// scaling against it, what -stats costs, and the leaf probes.
func batchLayers(ctx context.Context, e *env, w *batchWorkload, seed int64, dir string, res *runResult, tr *tracer,
	serial childRun, wall float64, traced []childRun) error {
	stages, units, err := parseStats(serial.Stderr)
	if err != nil {
		return err
	}
	if len(stages) == 0 {
		return fmt.Errorf("serial -stats run printed no timing line")
	}
	prefix := enginePrefix(w.engine)
	sum := 0.0
	for _, name := range stageNames {
		t := 0.0
		for _, st := range stages {
			t += st.Stage[name]
		}
		if stageReported(prefix, name) {
			res.set(prefix+"."+name+"_s", t, len(stages))
		}
	}
	for _, st := range stages {
		sum += st.sum()
	}
	res.set(prefix+".stage_sum_s", sum, len(stages))
	res.set(prefix+".stage_sum_over_wall", sum/serial.Wall, len(stages))
	res.set("sched.serial_wall_s", serial.Wall, 1)
	res.set("sched.scaling_eff", serial.Wall/(float64(runtime.GOMAXPROCS(0))*wall), 1)
	res.set("bench.trace_overhead_share", (undisturbed(pick(traced, func(c childRun) float64 { return c.Wall }))-wall)/wall, len(traced))

	alignDir := ""
	if w.alnExt == ".fq" {
		alignDir = dir
	}
	rep, err := runLayerprobe(ctx, e, seed, res, tr, w.probes, alignDir)
	if err != nil {
		return err
	}

	// Spans of the serial run. -stats prints durations, not instants, so
	// the units are laid end to end in print order (they ran one at a time)
	// and each unit's children end to end from its start: first the
	// alignment stage as the probe replayed it, then the engine's stages.
	if len(units) == 0 { // single-file mode prints no unit line: the process is the unit
		units = []unitLine{{Name: w.chr + ".fa", Wall: serial.Wall}}
	}
	if len(units) != len(stages) {
		return fmt.Errorf("-stats printed %d timing lines for %d units", len(stages), len(units))
	}
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var local tracer // the serial run's spans alone, so that its self times are its own
	root := local.add(0, "gsnp "+strings.Join(w.serialFlags(), " "), "genomejob", "", serial.Start, serial.End)
	unitsWall := 0.0
	for _, u := range units {
		unitsWall += u.Wall
	}
	cursor := serial.Start.Add(dur(max(serial.Wall-unitsWall, 0))) // start-up comes first
	for i, u := range units {
		uid := local.add(root, "unit", "genomejob", u.Name, cursor, cursor.Add(dur(u.Wall)))
		at := cursor
		child := func(parent int, name, layer string, seconds float64) int {
			id := local.add(parent, name, layer, u.Name, at, at.Add(dur(seconds)))
			at = at.Add(dur(seconds))
			return id
		}
		if a := rep.Units[u.Name]; a != nil {
			child(uid, "fastq_parse", "snpio", a["fastq_parse"])
			child(uid, "index", "align", a["index"])
			child(uid, "align", "align", a["align"])
		}
		for _, name := range stageNames {
			switch name {
			case "likeli":
				begin := at
				id := child(uid, name, prefix, stages[i].Stage[name])
				at = begin
				child(id, "likeli_sort", prefix, stages[i].Stage["likeli_sort"])
				child(id, "likeli_comp", prefix, stages[i].Stage["likeli_comp"])
				at = begin.Add(dur(stages[i].Stage[name]))
			case "likeli_sort", "likeli_comp":
			default:
				child(uid, name, prefix, stages[i].Stage[name])
			}
		}
		cursor = cursor.Add(dur(u.Wall))
	}
	self := selfSeconds(local.spans)
	tr.merge(0, local.spans)
	res.set("genomejob.self_s", self["genomejob"], len(units))
	e.logf("serial wall %.3fs = stages %.3fs + align %.3fs + fastq parse %.3fs + genomejob self %.3fs",
		serial.Wall, self[prefix], self["align"], self["snpio"], self["genomejob"])
	return nil
}

// serveLayers derives the service layer's client-side metrics from the
// jobs' timestamps.
func serveLayers(res *runResult, cold, cached, joined []*job) {
	submits, rejected := 0, 0
	for _, jobs := range [][]*job{cold, cached, joined} {
		for _, j := range jobs {
			if j.status != 0 {
				submits++
				if j.status != 202 {
					rejected++
				}
			}
		}
	}
	ack := func(j *job) time.Duration { return j.acked.Sub(j.submit) }
	coldAck, cachedAck := jobMS(cold, nil, ack), jobMS(cached, nil, ack)
	first := jobMS(cold, nil, func(j *job) time.Duration { return j.first.Sub(j.submit) })
	res.set("service.submit_ack_ms_p50", median(coldAck), len(coldAck))
	res.set("service.submit_ack_cached_ms_p50", median(cachedAck), len(cachedAck))
	res.set("service.first_record_ms_p50", median(first), len(first))
	var bytes, seconds float64
	for _, j := range cached {
		if j.err == nil {
			bytes += float64(j.bytes)
			seconds += j.end.Sub(j.acked).Seconds()
		}
	}
	if seconds > 0 {
		res.set("service.stream_mb_s", bytes/1e6/seconds, len(cached))
	}
	res.set("service.rejected_share", float64(rejected)/float64(max(submits, 1)), submits)
	whole := func(j *job) time.Duration { return j.end.Sub(j.submit) }
	with := jobMS(cached, func(j *job) bool { return j.traced }, whole)
	without := jobMS(cached, func(j *job) bool { return !j.traced }, whole)
	if len(with) > 0 && len(without) > 0 {
		res.set("bench.trace_overhead_share", (median(with)-median(without))/median(without), len(with))
	}
}
