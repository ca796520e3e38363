package model

import "fmt"

// PacketClass describes one packet type in the traffic mix: short packets
// (read requests, write acks) and long packets (read replies, write data).
type PacketClass struct {
	Name string
	// Bits is the packet size S_k.
	Bits int
	// Frac is p_k, the fraction of packets of this class; fractions over a
	// mix sum to 1.
	Frac float64
}

// DefaultMix returns the paper's packet population (Section 5.1): long
// 512-bit packets to short 128-bit packets at a 1:4 ratio, following the
// empirical characterization in [19]. Every caller shares the one slice, so
// building a default Config allocates nothing: replace a Config's Mix, never
// write into it.
func DefaultMix() []PacketClass { return defaultMix }

var defaultMix = []PacketClass{
	{Name: "short", Bits: 128, Frac: 0.8},
	{Name: "long", Bits: 512, Frac: 0.2},
}

// ValidateMix checks packet classes are well-formed and fractions sum to ~1.
func ValidateMix(mix []PacketClass) error {
	if len(mix) == 0 {
		return fmt.Errorf("model: empty packet mix")
	}
	sum := 0.0
	for _, c := range mix {
		if c.Bits <= 0 {
			return fmt.Errorf("model: packet class %q has non-positive size %d", c.Name, c.Bits)
		}
		if c.Frac < 0 {
			return fmt.Errorf("model: packet class %q has negative fraction %g", c.Name, c.Frac)
		}
		sum += c.Frac
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("model: packet mix fractions sum to %g, want 1", sum)
	}
	return nil
}

// FlitsFor returns the number of flits needed to carry a packet of the given
// size on links of widthBits (⌈S/b⌉).
func FlitsFor(packetBits, widthBits int) int {
	if widthBits <= 0 {
		panic("model: non-positive link width")
	}
	return (packetBits + widthBits - 1) / widthBits
}

// Serialization returns L_S,avg in cycles for the mix at the given link
// width: Σ p_k·⌈S_k/b⌉. The paper counts the full flit count as the
// serialization term (Fig. 1: a two-flit packet has two cycles of
// serialization latency).
func Serialization(mix []PacketClass, widthBits int) float64 {
	var s float64
	for _, c := range mix {
		s += c.Frac * float64(FlitsFor(c.Bits, widthBits))
	}
	return s
}

// MeanPacketBits returns the average packet size of the mix.
func MeanPacketBits(mix []PacketClass) float64 {
	var s float64
	for _, c := range mix {
		s += c.Frac * float64(c.Bits)
	}
	return s
}
