package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names one metric, its unit and direction, and the bound by
// which it may worsen before `compare` and the PR driver call a change a
// regression. Per-layer metrics have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the baseline median; an absolute amount when Abs
	Abs    bool    `json:"-"`
}

// contract is BENCHMARK.json, the one place where the workloads and the
// metrics are named: the PR driver reads the same file. README.md says
// how each bound was arrived at.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd is the gated tier: what a user of the CLI or of gsnpd sees.
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer is the traced tier: one prefix per package. A metric of a
	// layer the workload never enters reads 0 (the layer was busy for 0 s).
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func (c *contract) workloadNames() []string {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return names
}

// sameSeed metrics are end-to-end by nature but cannot be gated by the PR
// driver: it compares runs of different seeds, across which accuracy varies
// with the drawn variants, and failed_share is 0, which the driver forbids
// (it reads `failed` and `attempted` instead). `compare`, which is given
// two files made with the same seeds, holds them to absolute bounds. The
// driver sees sensitivity and precision among the per-layer metrics.
var sameSeed = []metricDef{
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0, Abs: true},
	{Name: "sensitivity", Unit: "share", Better: "higher", Bound: 0.005, Abs: true},
	{Name: "precision", Unit: "share", Better: "higher", Bound: 0.005, Abs: true},
}

// all is every metric once, in print order: end-to-end, failed_share,
// per-layer.
func (c *contract) all() []metricDef {
	return append(append(append([]metricDef(nil), c.EndToEnd...), sameSeed[0]), c.PerLayer...)
}

func (c *contract) find(name string) (metricDef, bool) {
	for _, d := range c.all() {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// definedOn reports whether a workload measures an end-to-end metric. The
// six job_* latencies are the lifecycles of a gsnpd job; a batch workload
// has no cache, single-flight or journal, so it does not report them, and
// `compare` has no row for them there. The PR driver wants every metric
// from every workload, so driverLine alone fills them in.
func definedOn(d metricDef, workload string) bool {
	return !strings.HasPrefix(d.Name, "job_") || workload == serveMixed
}

const serveMixed = "serve-mixed"

// stageNames are the -stats columns, in print order; each becomes
// <engine>.<stage>_s, except that gsnp reports the two halves of its
// likelihood stage and the dense engine has only the whole.
var stageNames = []string{"cal_p", "read", "count", "likeli", "likeli_sort", "likeli_comp", "post", "output", "recycle"}

func stageReported(prefix, stage string) bool {
	halves := stage == "likeli_sort" || stage == "likeli_comp"
	if prefix == "soapsnp" {
		return !halves
	}
	return stage != "likeli"
}
