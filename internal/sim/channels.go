package sim

import (
	"fmt"
	"sort"
)

// ChannelStat reports one directed network channel's traffic over a run.
type ChannelStat struct {
	// SrcX, SrcY, DstX, DstY identify the channel's endpoints.
	SrcX, SrcY, DstX, DstY int
	// Length is the channel's Manhattan length in unit segments.
	Length int
	// Flits is the number of flits that traversed the channel.
	Flits int64
	// Utilization is Flits divided by the cycles of the whole run — the
	// fraction of cycles the channel carried a flit.
	Utilization float64
}

func (c ChannelStat) String() string {
	return fmt.Sprintf("(%d,%d)->(%d,%d) len=%d flits=%d util=%.3f",
		c.SrcX, c.SrcY, c.DstX, c.DstY, c.Length, c.Flits, c.Utilization)
}

// ChannelStats returns per-channel traffic statistics sorted by descending
// utilization. It exposes exactly the effect Section 5.4 discusses: the
// HFB's inter-quadrant local links saturate while express capacity idles,
// whereas optimized placements spread load more evenly.
func (s *Simulator) ChannelStats() []ChannelStat {
	cycles := s.now
	if cycles <= 0 {
		cycles = 1
	}
	out := make([]ChannelStat, 0, len(s.channels))
	for _, ch := range s.channels {
		src := ch.src
		dst := ch.dst
		out = append(out, ChannelStat{
			SrcX: src.x, SrcY: src.y, DstX: dst.x, DstY: dst.y,
			Length:      int(ch.lenUnits),
			Flits:       ch.flits,
			Utilization: float64(ch.flits) / float64(cycles),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flits != out[j].Flits {
			return out[i].Flits > out[j].Flits
		}
		a, b := out[i], out[j]
		ka := [4]int{a.SrcY, a.SrcX, a.DstY, a.DstX}
		kb := [4]int{b.SrcY, b.SrcX, b.DstY, b.DstX}
		for k := range ka {
			if ka[k] != kb[k] {
				return ka[k] < kb[k]
			}
		}
		return false
	})
	return out
}

// UtilizationSummary condenses channel statistics into the numbers the
// bottleneck analysis needs.
type UtilizationSummary struct {
	Channels int
	MaxUtil  float64
	MeanUtil float64
	// Gini is a [0,1] inequality measure of per-channel load: 0 means all
	// channels equally loaded, values near 1 mean a few channels carry
	// nearly everything (a bottlenecked design).
	Gini float64
}

func (u UtilizationSummary) String() string {
	return fmt.Sprintf("channels=%d max=%.3f mean=%.3f gini=%.3f",
		u.Channels, u.MaxUtil, u.MeanUtil, u.Gini)
}

// Summarize computes the utilization summary of a finished run.
func (s *Simulator) Summarize() UtilizationSummary {
	stats := s.ChannelStats()
	var out UtilizationSummary
	out.Channels = len(stats)
	if len(stats) == 0 {
		return out
	}
	loads := make([]float64, len(stats))
	var sum float64
	for i, c := range stats {
		loads[i] = c.Utilization
		sum += c.Utilization
		if c.Utilization > out.MaxUtil {
			out.MaxUtil = c.Utilization
		}
	}
	out.MeanUtil = sum / float64(len(stats))
	// Gini over sorted loads.
	sort.Float64s(loads)
	if sum > 0 {
		var cum float64
		for i, l := range loads {
			cum += float64(i+1) * l
		}
		n := float64(len(loads))
		out.Gini = (2*cum - (n+1)*sum) / (n * sum)
	}
	return out
}
