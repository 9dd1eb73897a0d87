// Package freq models discrete DVFS frequency states and heterogeneous
// core types for the paper's performance and power models.
//
// The scaling contract (DESIGN.md §13) splits every model quantity into a
// frequency-invariant and a frequency-dependent part:
//
//   - SPI (Eq. 3): SPI = Alpha·MPA + Beta. The memory term Alpha·MPA is
//     set by cache behavior and DRAM latency, which do not track the core
//     clock; the compute term Beta scales with the core type's
//     cycles-per-instruction factor over the clock ratio. So
//     SPI(s) = Alpha·MPA + Beta·(SPIFactor/Ratio).
//   - Power (Eq. 9): watts = static + Σ cᵢ·rateᵢ. The static intercept
//     (idle leakage) is frequency-fixed; every dynamic event energy cᵢ
//     scales with f·V² (CMOS switching energy), times the core type's
//     dynamic factor. So watts(s) = static + DynFactor·Ratio·Voltage²·dyn.
//
// Every scaling helper is IDENTITY-GATED: when the combined factor is
// exactly 1 the unscaled input is returned unchanged, bit for bit. This
// is load-bearing — (a−b)·k+b only equals a in floating point when the
// arithmetic is skipped — and is what keeps every pre-DVFS golden
// byte-identical at a machine's base state.
package freq

import (
	"errors"
	"fmt"
)

// State is one DVFS operating point, relative to the machine's base:
// Ratio is the clock divider (1 = base frequency) and Voltage the supply
// divider (1 = base voltage). Lower states run slower and cooler.
type State struct {
	Ratio   float64 `json:"ratio"`
	Voltage float64 `json:"voltage"`
}

// Base is the identity operating point.
var Base = State{Ratio: 1, Voltage: 1}

// DynScale is the dynamic-power multiplier f·V² of this state. Exactly 1
// at the base state.
func (s State) DynScale() float64 {
	if s.Ratio == 1 && s.Voltage == 1 {
		return 1
	}
	return s.Ratio * s.Voltage * s.Voltage
}

// Domain is a machine's discrete DVFS ladder: states in strictly
// ascending Ratio order, the last being the base state (Ratio 1, Voltage
// 1). A nil *Domain means the machine has exactly one fixed state — the
// base — and every accessor treats it that way, so legacy machines need
// no ladder at all.
type Domain struct {
	States []State `json:"states"`
}

// Validate checks the ladder's structural contract.
func (d *Domain) Validate() error {
	if d == nil {
		return nil
	}
	if len(d.States) == 0 {
		return errors.New("freq: empty state ladder")
	}
	prev := 0.0
	for i, s := range d.States {
		if s.Ratio <= 0 || s.Ratio > 1 {
			return fmt.Errorf("freq: state %d ratio %v outside (0, 1]", i, s.Ratio)
		}
		if s.Voltage <= 0 || s.Voltage > 1 {
			return fmt.Errorf("freq: state %d voltage %v outside (0, 1]", i, s.Voltage)
		}
		if s.Ratio <= prev {
			return fmt.Errorf("freq: state %d ratio %v not strictly above state %d", i, s.Ratio, i-1)
		}
		prev = s.Ratio
	}
	base := d.States[len(d.States)-1]
	if base != Base {
		return fmt.Errorf("freq: last state %+v must be the base {1, 1}", base)
	}
	return nil
}

// NumStates is the ladder length (1 for a nil domain).
func (d *Domain) NumStates() int {
	if d == nil {
		return 1
	}
	return len(d.States)
}

// BaseIx is the index of the base state (the last rung; 0 for a nil
// domain).
func (d *Domain) BaseIx() int {
	if d == nil {
		return 0
	}
	return len(d.States) - 1
}

// State returns the ladder rung at ix; out-of-range indices (and nil
// domains) return the base state, so an unclocked machine is always
// well-defined.
func (d *Domain) State(ix int) State {
	if d == nil || ix < 0 || ix >= len(d.States) {
		return Base
	}
	return d.States[ix]
}

// CoreType tags a machine preset's core microarchitecture. The zero
// value is the out-of-order baseline (both factors read as 1): every
// pre-existing preset keeps its exact legacy parameters without setting
// anything.
type CoreType struct {
	// Name labels the type in reports ("" reads as out-of-order).
	Name string `json:"name,omitempty"`
	// SPIFactor multiplies the compute (Beta) term of Eq. 3: an in-order
	// core retires fewer instructions per cycle, so its factor is > 1.
	// 0 reads as 1.
	SPIFactor float64 `json:"spi_factor,omitempty"`
	// DynFactor multiplies the dynamic event energies of Eq. 9: a little
	// core's narrower pipeline switches less capacitance. 0 reads as 1.
	DynFactor float64 `json:"dyn_factor,omitempty"`
}

// OutOfOrder is the big-core baseline: the identity parameter set every
// legacy preset implicitly carries.
func OutOfOrder() CoreType { return CoreType{Name: "out-of-order"} }

// InOrder is the little-core parameter set: ~1.55× the compute term
// (shallow, in-order pipeline), ~0.45× the dynamic energy.
func InOrder() CoreType {
	return CoreType{Name: "in-order", SPIFactor: 1.55, DynFactor: 0.45}
}

// SPIFactorOf returns the core type's compute multiplier (0 reads 1).
func (c CoreType) spiFactor() float64 {
	if c.SPIFactor == 0 {
		return 1
	}
	return c.SPIFactor
}

// dynFactor returns the core type's dynamic-energy multiplier (0 reads 1).
func (c CoreType) dynFactor() float64 {
	if c.DynFactor == 0 {
		return 1
	}
	return c.DynFactor
}

// Validate rejects non-positive explicit factors.
func (c CoreType) Validate() error {
	if c.SPIFactor < 0 || c.DynFactor < 0 {
		return fmt.Errorf("freq: core type %q has negative factors", c.Name)
	}
	return nil
}

// SPIFactorAt is the combined compute-term multiplier k of core type c at
// state s: SPI(s) = mem + k·Beta. Exactly 1 for an out-of-order core at
// the base state.
func SPIFactorAt(c CoreType, s State) float64 {
	k := c.spiFactor()
	if s.Ratio != 1 {
		k /= s.Ratio
	}
	return k
}

// DynScaleAt is the combined dynamic-power multiplier d of core type c at
// state s: watts(s) = static + d·(watts − static). Exactly 1 for an
// out-of-order core at the base state.
func DynScaleAt(c CoreType, s State) float64 {
	return c.dynFactor() * s.DynScale()
}

// ScaleSPI applies the compute multiplier k to an Eq. 3 total whose
// summed compute term is beta. Identity-gated: k == 1 returns spi
// unchanged, bit for bit.
func ScaleSPI(spi, beta, k float64) float64 {
	if k == 1 {
		return spi
	}
	return spi + float64((k-1)*beta)
}

// ScaleWatts applies the dynamic multiplier d to an Eq. 9 estimate whose
// frequency-fixed static part is static. Identity-gated: d == 1 returns
// watts unchanged, bit for bit.
func ScaleWatts(watts, static, d float64) float64 {
	if d == 1 {
		return watts
	}
	return static + float64(d*(watts-static))
}
