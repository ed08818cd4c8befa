package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle samples for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it may be reported: at least minTail samples must lie
// strictly above its rank. A tail quantile read from too few samples is
// one or two outliers, not a distribution.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minTail {
		return 0, false
	}
	return sorted(xs)[rank], true
}

// geomean is the geometric mean of positive samples; NaN if any sample
// is not positive or there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// metricName is the grammar every reported metric name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported figure: its value, unit and the samples the
// value was derived from (empty for a count or a derived ratio).
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// metrics is an ordered metric set: names in insertion order, each
// checked against the grammar when it is set.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

// set records a metric, replacing an earlier value of the same name.
func (ms *metrics) set(name, unit string, v float64, samples []float64, note string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, Samples: samples, Note: note}
}

func (ms *metrics) get(name string) (metric, bool) {
	m, ok := ms.m[name]
	return m, ok
}
