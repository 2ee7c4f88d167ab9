package main

import (
	"context"
	"slices"
)

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the benchmark driver uses to judge
// run-to-run spread. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	const n = 4
	ld := len(data)
	cut := func(i int) float64 {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// repeatSets runs sets back to back, set i with seed+i the way the
// driver varies seeds, and prints per (workload, metric) the median,
// range and interquartile spread against the metric's bound.
func repeatSets(ctx context.Context, cfg config, run []workloadSpec, seed int64, sets int, out *reporter) int {
	metrics := endToEnd
	if cfg.trace != "" {
		metrics = perLayer
	}
	type key struct{ workload, metric string }
	vals := make(map[key][]float64)
	failed := 0
	out.quiet = true
	for i := 0; i < sets; i++ {
		for _, w := range run {
			res, err := runWorkload(ctx, cfg, w, seed+int64(i), out)
			if err != nil {
				out.note("set %d, %s: %v", i, w.Name, err)
				return 1
			}
			failed += res.Failed
			for name, v := range res.Metrics {
				k := key{w.Name, name}
				vals[k] = append(vals[k], v.Value)
			}
			out.note("set %d/%d: %s done", i+1, sets, w.Name)
		}
	}
	outside := 0
	for _, w := range run {
		for _, m := range metrics {
			v := vals[key{w.Name, m.Name}]
			row := map[string]any{
				"workload": w.Name, "metric": m.Name, "unit": m.Unit, "sets": len(v),
				"median": median(v), "min": slices.Min(v), "max": slices.Max(v),
			}
			if len(v) >= 2 {
				q1, q2, q3 := quartiles(v)
				spread := ratio(q3-q1, q2)
				row["spread"] = spread
				if m.Bound > 0 {
					row["bound"] = m.Bound
					row["within_bound"] = spread <= m.Bound
					// setup_s is judged on its median only.
					if spread > m.Bound && m.Name != "setup_s" {
						outside++
					}
				}
			}
			out.line(row)
		}
	}
	out.line(map[string]any{"sets": sets, "failed_ops": failed, "metrics_outside_bound": outside})
	if failed > 0 {
		out.note("%d operations failed", failed)
		return 1
	}
	return 0
}
