package main

import (
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so spreads computed here and by an outside checker agree.
// One sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// metric is one named series of samples. A run reports its median.
type metric struct {
	name, unit string
	samples    []float64
}

// table keeps series in first-use order so output is stable.
type table struct {
	list  []*metric
	index map[string]*metric
}

func newTable() *table { return &table{index: map[string]*metric{}} }

// add appends one sample to the named series, creating it on first use.
func (ms *table) add(name, unit string, v float64) {
	m := ms.index[name]
	if m == nil {
		m = &metric{name: name, unit: unit}
		ms.index[name] = m
		ms.list = append(ms.list, m)
	}
	m.samples = append(m.samples, v)
}
