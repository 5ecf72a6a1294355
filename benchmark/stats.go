package main

import (
	"math"
	"sort"
)

// sortedCopy returns the values in ascending order without touching the
// caller's slice.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// percentile estimates the p-th percentile of the distribution an ascending
// slice was drawn from with the Harrell–Davis estimator: a weighted mean of
// all order statistics, the weight of the i-th being the probability mass a
// Beta((n+1)p, (n+1)(1-p)) distribution puts on ((i-1)/n, i/n]. On many
// samples it converges to the sample percentile. On few — a list of two
// dozen different queries, whose neighbouring values lie as far apart as
// two queries differ — it averages over the order statistics around the
// rank, so the figure does not hinge on the one query that happens to sit
// there (which query that is, and what it finds in the caches, changes
// with the arrangement of the document).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	logNorm := lgAB - lgA - lgB
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp(logNorm + (a-1)*math.Log(x) + (b-1)*math.Log(1-x))
	}
	var sum, total float64
	for i, v := range sorted {
		w := simpson(pdf, float64(i)/float64(n), float64(i+1)/float64(n))
		sum += w * v
		total += w
	}
	return sum / total
}

// latencyPercentile is percentile on the logarithm of the values: run to
// run and document to document a query's latency moves by a factor, not by
// an offset, and the latencies of a stratified mix span three orders of
// magnitude, so the averaging the estimator does belongs on the log scale.
// Values must be positive.
func latencyPercentile(sorted []float64, p float64) float64 {
	logs := make([]float64, len(sorted))
	for i, v := range sorted {
		logs[i] = math.Log(v)
	}
	return math.Exp(percentile(logs, p))
}

// simpson integrates f over [lo, hi] with the composite Simpson rule.
func simpson(f func(float64) float64, lo, hi float64) float64 {
	const steps = 32 // even
	h := (hi - lo) / steps
	acc := f(lo) + f(hi)
	for k := 1; k < steps; k++ {
		if k%2 == 1 {
			acc += 4 * f(lo+float64(k)*h)
		} else {
			acc += 2 * f(lo+float64(k)*h)
		}
	}
	return acc * h / 3
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank among n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	// The epsilon keeps 0.9*100 from landing a hair above 90.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// highestSupported returns the highest of the usual tail percentiles that
// n samples support with at least minBeyond samples beyond it; 0.5 when
// none does.
func highestSupported(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// rule the acceptance check of the benchmark uses. Fewer than two values
// have no spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// perQuery averages a counter total over complete passes of a query list,
// so the figure repeats exactly from run to run however many passes fit in
// the window.
func perQuery(total int64, passes, listLen int) float64 {
	if passes <= 0 || listLen <= 0 {
		return 0
	}
	return float64(total) / float64(passes*listLen)
}

// worsening is how much worse b is than a as a share of a, positive when
// worse, for a metric where lower (or higher) is better.
func worsening(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// verdict compares the runs of one (metric, workload) pair on two sides
// under the metric's bound. "worse" means b's median is worse than a's by
// more than the bound; "unresolved" means the change is inside the bound
// but a's own spread is wider than the bound, so the pair cannot be called
// unchanged — unless every run of b beats every run of a; "better" needs
// the medians to differ by more than a's spread (by more than the bound
// when each side is a single run and no spread is known).
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	w := worsening(median(a), median(b), lowerIsBetter)
	if w > bound {
		return "worse"
	}
	spread := relSpread(a)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worsening(x, y, lowerIsBetter) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter && len(a) > 1 {
		return "better"
	}
	if spread > bound {
		return "unresolved"
	}
	if w < 0 && -w > spread && (len(a) > 1 || -w > bound) {
		return "better"
	}
	return "unchanged"
}
