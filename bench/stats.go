package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile applies the reporting rule "the highest percentile that
// has at least ten samples beyond it": it lowers want until ten of the n
// samples lie above it, and never goes below the median, which is always
// reported.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	p := math.Min(want, 100*(1-10/float64(n)))
	return math.Max(p, 50)
}

// tail is the want-th percentile of xs as far as the ten-samples rule
// allows.
func tail(xs []float64, want float64) float64 {
	return percentile(xs, tailPercentile(len(xs), want))
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// PR driver uses for a metric's spread. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// undisturbed is the statistic a batch workload reports of its
// repetitions' wall and CPU seconds: the first quartile. On the shared
// 2-core host a two-thread program loses part of a core for seconds at a
// time, which only ever adds time, to about every other repetition in a
// bad minute: the median of eight then falls between a fast and a slow
// cluster and moves with the mix, while the first quartile stays in the
// fast one. Over ten runs of genome-soap-rows its spread was 10-14 %
// where the median's was 16-19 %, and 24-35 % against 31-42 % in a noisy
// hour (README.md, "Sizing"). A change that slows every repetition moves
// both alike.
func undisturbed(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	q1, _, _ := quartiles(xs)
	return q1
}

// iqr is the distance between the first and third quartile; 0 for fewer
// than two values.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}

// stageTimes is one `-stats` timing line: seconds per pipeline component
// of one unit (chromosome). Sort and Comp are the two halves of Likeli on
// the gsnp engines and 0 on soapsnp.
type stageTimes struct {
	Engine string // "gsnp-cpu", "gsnp-gpu" or "soapsnp"
	Stage  map[string]float64
	Total  float64
}

// sum adds the top-level stages (likeli already contains sort and comp).
func (s stageTimes) sum() float64 {
	t := 0.0
	for name, v := range s.Stage {
		if name != "likeli_sort" && name != "likeli_comp" {
			t += v
		}
	}
	return t
}

// unitLine is genome mode's per-chromosome completion line.
type unitLine struct {
	Name string
	Wall float64
}

// parseStats reads the stderr of a `gsnp -stats` run: an engine summary
// line ("gsnp-cpu: 74100 sites, ..."), the timing line that follows it,
// and in genome mode a "gsnp: chr1.fa -> chr1.result (worker 0, 208ms,
// ...)" line per unit. Lines it does not know are skipped.
func parseStats(stderr string) (stages []stageTimes, units []unitLine, err error) {
	engine := ""
	for _, line := range strings.Split(stderr, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "gsnp-cpu: "), strings.HasPrefix(line, "gsnp-gpu: "), strings.HasPrefix(line, "soapsnp: "):
			engine, _, _ = strings.Cut(line, ":")
		case strings.HasPrefix(line, "cal_p="):
			st, perr := parseStageLine(line)
			if perr != nil {
				return nil, nil, perr
			}
			st.Engine = engine
			stages = append(stages, st)
		case strings.HasPrefix(line, "gsnp: ") && strings.Contains(line, " -> ") && strings.Contains(line, "(worker "):
			rest := strings.TrimPrefix(line, "gsnp: ")
			name, after, _ := strings.Cut(rest, " -> ")
			_, paren, _ := strings.Cut(after, "(worker ")
			fields := strings.Split(paren, ", ")
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("unit line %q: no wall time", line)
			}
			d, perr := time.ParseDuration(fields[1])
			if perr != nil {
				return nil, nil, fmt.Errorf("unit line %q: %w", line, perr)
			}
			units = append(units, unitLine{Name: name, Wall: d.Seconds()})
		}
	}
	return stages, units, nil
}

// parseStageLine parses
// "cal_p=39ms read=3ms count=56ms likeli=29ms(sort=7ms,comp=21ms) post=5ms output=8ms recycle=0s total=141ms".
func parseStageLine(line string) (stageTimes, error) {
	st := stageTimes{Stage: make(map[string]float64)}
	flat := strings.NewReplacer("(", " likeli_", ",", " likeli_", ")", "").Replace(line)
	for _, kv := range strings.Fields(flat) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return st, fmt.Errorf("stats line %q: field %q", line, kv)
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return st, fmt.Errorf("stats line %q: %w", line, err)
		}
		if k == "total" {
			st.Total = d.Seconds()
		} else {
			st.Stage[k] = d.Seconds()
		}
	}
	return st, nil
}
