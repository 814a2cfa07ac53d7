package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricValue is one measured number; N is the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runRecord is one run of one workload as the results file keeps it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newRunRecord names and units what a run measured. An untraced run must
// have produced every end-to-end metric its workload defines, none of them
// 0; a traced run reports every per-layer metric, 0 for a layer its
// workload never enters.
func newRunRecord(c *contract, workload string, seed int64, seconds float64, traced bool, res *runResult) (*runRecord, error) {
	rec := &runRecord{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Notes: res.notes, Metrics: make(map[string]metricValue)}
	res.set("failed_share", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	for name, v := range res.metrics {
		d, ok := c.find(name)
		if !ok {
			return nil, fmt.Errorf("%s: metric %q is not defined in BENCHMARK.json", workload, name)
		}
		rec.Metrics[name] = metricValue{Value: v, Unit: d.Unit, N: res.counts[name]}
	}
	if traced {
		for _, d := range c.PerLayer {
			if _, ok := rec.Metrics[d.Name]; !ok {
				rec.Metrics[d.Name] = metricValue{Unit: d.Unit}
			}
		}
		return rec, nil
	}
	for _, d := range c.EndToEnd {
		if definedOn(d, workload) && rec.Metrics[d.Name].Value <= 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", workload, d.Name)
		}
	}
	return rec, nil
}

// driverLine is the object the PR driver reads from the last line of
// standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one. The driver takes one flat list, every
// metric from every workload and none of them 0, so a job_* latency on a
// batch workload, which does not define it (see definedOn), is sent as
// wall_s in ms: one CLI invocation is one job, computed from scratch. It
// gates there exactly what wall_s gates, and appears nowhere else.
func (r *runRecord) driverLine(c *contract) map[string]any {
	defs := c.EndToEnd
	if r.Traced {
		defs = c.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if !r.Traced && !definedOn(d, r.Workload) {
			v = r.Metrics["wall_s"].Value * 1e3
		}
		metrics[d.Name] = valueUnit{v, d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printMetrics prints every metric of a run by name, with its unit and
// sample count, in the order BENCHMARK.json lists them.
func printMetrics(w io.Writer, c *contract, r *runRecord) {
	fmt.Fprintf(w, "%s  seed %d  traced %v  attempted %d  failed %d\n", r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed)
	for _, d := range c.all() {
		if m, ok := r.Metrics[d.Name]; ok && !(r.Traced && m.N == 0) {
			fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", d.Name, m.Value, m.Unit, m.N)
		}
	}
}

// resultsFile is what `all` writes and `compare` reads.
type resultsFile struct {
	Host    hostInfo     `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runRecord `json:"runs"`
}

func (f *resultsFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
