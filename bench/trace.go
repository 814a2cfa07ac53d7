package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are Unix
// nanoseconds, so spans recorded by the layerprobe child merge with the
// parent's without translation. Unit ties the spans of one chromosome or
// one job together; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends. A
// nil tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name, layer, unit string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Unit: unit,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// merge adopts spans recorded elsewhere (the layerprobe child), renumbering
// them after the tracer's own and hanging their roots under parent.
func (t *tracer) merge(parent int, in []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range in {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfSeconds is each layer's self time: every span's duration minus the
// part of it that its children cover (overlapping children count once),
// summed by layer.
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
	Spans       []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed,
		SelfSeconds: selfSeconds(t.spans), Spans: t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
