package main

import (
	"strings"

	"serfi/internal/obs"
)

// obsCounters flattens a registry snapshot into name{label values} -> value;
// histograms contribute name_sum and name_count.
type obsCounters map[string]float64

func snapshotObs() obsCounters {
	out := obsCounters{}
	for _, f := range obs.Default.Snapshot() {
		for _, s := range f.Series {
			key := f.Name
			for _, v := range s.Values {
				key += "{" + v + "}"
			}
			if f.Kind == obs.KindHistogram.String() {
				out[key+"_sum"] = s.Sum
				out[key+"_count"] = float64(s.Count)
				continue
			}
			out[key] = s.Value
		}
	}
	return out
}

// since returns how far each series moved between two snapshots.
func (after obsCounters) since(before obsCounters) obsCounters {
	d := obsCounters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of one family (all label values).
func (c obsCounters) sum(family string) float64 {
	total := 0.0
	for k, v := range c {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}
