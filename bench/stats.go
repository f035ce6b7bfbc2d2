package main

import (
	"sort"
)

// percentile returns the permille/1000 quantile of sorted by the
// nearest-rank rule: the smallest sample with at least that share of the
// samples at or below it (500 is the median, 999 is p99.9). Integer
// arithmetic keeps the rank exact. sorted must be ascending and non-empty.
func percentile(sorted []int64, permille int) int64 {
	rank := (permille*len(sorted)+999)/1000 - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count). vs is not modified.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overRounds folds one metric's per-round values into the reported
// figure: the median over the rounds, with the extremes kept beside it so
// a reader sees the round spread without re-running.
func overRounds(vs []float64, unit string, samples int64) Metric {
	m := Metric{Value: median(vs), Unit: unit, Min: vs[0], Max: vs[0], Samples: samples}
	for _, v := range vs[1:] {
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	return m
}

// spread is the round spread of a metric as a share of its median — what
// -compare weighs against the metric's bound.
func (m Metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Max - m.Min) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// interval is a half-open [start, end) stretch of trace time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent; only
// the union of their coverage inside [start, end) is subtracted.
func selfTime(start, end int64, children []interval) int64 {
	if end <= start {
		return 0
	}
	cs := append([]interval(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, cursor := int64(0), start
	for _, c := range cs {
		if c.start < cursor {
			c.start = cursor
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			covered += c.end - c.start
			cursor = c.end
		}
	}
	return end - start - covered
}
