// Package power implements the ground-truth power oracle and the simulated
// measurement apparatus that replace the paper's physical setup (a Fluke
// i30 current clamp on the 12 V processor supply line, sampled by an NI
// USB-6210 DAQ card at 10 kHz, behind a 90%-efficient on-chip voltage
// regulator).
//
// The oracle defines what the processor "actually" consumes as a function
// of per-core activity. It is intentionally NOT a pure linear function of
// the five monitored event rates: a mild saturating nonlinearity and
// process variation noise are included so that the MVLR model (Eq. 9) fits
// with realistic residuals and the neural-network comparator has something
// to gain — reproducing the paper's 96.2% (MVLR) vs 96.8% (NN) accuracy
// comparison.
//
// The models under test never see the oracle's parameters; they are
// trained purely on the measured signal, exactly as on hardware.
package power

import (
	"math"

	"mpmc/internal/hpc"
	"mpmc/internal/xrand"
)

// Electrical constants of the measurement setup (Section 6.1).
const (
	// SupplyVoltage is the measured rail voltage in volts.
	SupplyVoltage = 12.0
	// RegulatorEfficiency is the assumed fixed regulator efficiency, so
	// P_proc = 0.9 · 12 V · I = 10.8 · I.
	RegulatorEfficiency = 0.9
)

// OracleParams defines the true (hidden) power behaviour of one machine.
type OracleParams struct {
	CoreIdle float64 // W consumed by an idle core (clock tree, leakage share)
	Uncore   float64 // W consumed by shared uncore logic, always on

	// Linear event energies, W per (event/second). L2Miss is negative:
	// while a core stalls on memory its execution units draw less power —
	// the effect the paper highlights for coefficient c3 of Eq. 9.
	L1Ref  float64
	L2Ref  float64
	L2Miss float64
	Branch float64
	FPOp   float64

	// SatL1 is the L1 reference rate (events/s) at which the L1
	// contribution has fallen to half its linear slope: the mild
	// nonlinearity MVLR cannot capture. Zero disables saturation.
	SatL1 float64

	// QuadL2 adds QuadL2·L2RPS² watts per core: queueing at the shared
	// L2 makes its dynamic power grow super-linearly with reference rate.
	// This is the curvature that lets the NN comparator edge out MVLR in
	// the Section 4.1 accuracy comparison.
	QuadL2 float64

	// NoiseStd is the standard deviation, in watts, of per-window
	// intrinsic power variation per core (temperature, voltage ripple).
	NoiseStd float64

	// WanderStd and WanderTau define a slow Ornstein–Uhlenbeck wander of
	// total processor power (thermal drift, VRM operating-point shifts):
	// stationary deviation WanderStd watts, decorrelating over WanderTau
	// ProcessorPower evaluations (one evaluation per sampling window).
	// This is activity the monitored events cannot explain, and it is
	// what keeps sample-based model errors realistic. Zero disables it.
	WanderStd float64
	WanderTau float64
}

// AtState returns the oracle parameters at a DVFS operating point whose
// combined dynamic multiplier is d (the core type's dynamic factor times
// the state's f·V², see internal/freq): every dynamic event energy —
// including the quadratic L2 queueing term — scales by d, while the
// static terms (CoreIdle, Uncore), the saturation threshold, and the
// noise processes stay fixed. Identity-gated: d == 1 returns p unchanged,
// so a machine at its base state has exactly its legacy oracle.
func (p OracleParams) AtState(d float64) OracleParams {
	if d == 1 {
		return p
	}
	q := p
	q.L1Ref *= d
	q.L2Ref *= d
	q.L2Miss *= d
	q.Branch *= d
	q.FPOp *= d
	q.QuadL2 *= d
	return q
}

// Oracle computes ground-truth processor power from per-core activity.
type Oracle struct {
	p      OracleParams
	rng    *xrand.Rand
	wander float64 // OU state, advanced once per ProcessorPower call
}

// NewOracle builds an oracle with its own noise stream.
func NewOracle(p OracleParams, seed uint64) *Oracle {
	return &Oracle{p: p, rng: xrand.New(seed ^ 0x9041)}
}

// Params returns the oracle parameters (used by tests; models must not
// call this).
func (o *Oracle) Params() OracleParams { return o.p }

// CorePower returns the true power of one core given its event rates over
// a window, including intrinsic noise. An idle core passes zero rates.
func (o *Oracle) CorePower(r hpc.Rates) float64 {
	p := o.p.CoreIdle
	l1 := o.p.L1Ref * r.L1RPS
	if o.p.SatL1 > 0 {
		l1 = o.p.L1Ref * r.L1RPS / (1 + r.L1RPS/(2*o.p.SatL1))
	}
	p += l1
	p += float64(o.p.L2Ref * r.L2RPS)
	p += float64(o.p.QuadL2 * r.L2RPS * r.L2RPS)
	p += float64(o.p.L2Miss * r.L2MPS)
	p += float64(o.p.Branch * r.BRPS)
	p += float64(o.p.FPOp * r.FPPS)
	p += float64(o.p.NoiseStd * o.rng.NormFloat64())
	if p < 0 {
		p = 0
	}
	return p
}

// ProcessorPower returns total package power for a set of per-core rates
// (one entry per core; idle cores contribute their idle power). Each call
// represents one sampling window and advances the slow power wander.
func (o *Oracle) ProcessorPower(cores []hpc.Rates) float64 {
	p := o.p.Uncore
	for _, r := range cores {
		p += o.CorePower(r)
	}
	if o.p.WanderStd > 0 && o.p.WanderTau > 0 {
		decay := math.Exp(-1 / o.p.WanderTau)
		o.wander = float64(o.wander*decay) + float64(o.p.WanderStd*math.Sqrt(1-float64(decay*decay))*o.rng.NormFloat64())
		p += o.wander
	}
	if p < 0 {
		p = 0
	}
	return p
}

// SensorParams describes the measurement chain.
type SensorParams struct {
	// ClampNoiseStd is the current clamp's RMS noise in amperes per raw
	// DAQ sample.
	ClampNoiseStd float64
	// SampleRate is the DAQ sampling frequency in Hz (paper: 10 kHz).
	SampleRate float64
	// CurrentLSB is the DAQ quantization step in amperes; zero disables
	// quantization.
	CurrentLSB float64
}

// DefaultSensor mirrors the paper's apparatus: 10 kHz sampling, a clamp
// noise floor of about 30 mA RMS, and a 16-bit DAQ over a ±10 A range.
func DefaultSensor() SensorParams {
	return SensorParams{
		ClampNoiseStd: 0.03,
		SampleRate:    10_000,
		CurrentLSB:    20.0 / 65536,
	}
}

// Sensor converts true processor power into the measured value an
// experimenter records, via the current clamp model.
type Sensor struct {
	p   SensorParams
	rng *xrand.Rand
}

// NewSensor builds a sensor with its own noise stream.
func NewSensor(p SensorParams, seed uint64) *Sensor {
	return &Sensor{p: p, rng: xrand.New(seed ^ 0x5EA50)}
}

// MeasureWindow returns the measured average power over a window of dt
// seconds during which true power is truePower. The DAQ takes
// SampleRate·dt raw current samples whose noise averages down accordingly;
// quantization adds a deterministic floor. The returned value applies the
// paper's conversion P = RegulatorEfficiency · V · I = 10.8 · I.
func (s *Sensor) MeasureWindow(truePower, dt float64) float64 {
	if dt <= 0 {
		panic("power: non-positive measurement window")
	}
	trueCurrent := truePower / (RegulatorEfficiency * SupplyVoltage)
	n := s.p.SampleRate * dt
	if n < 1 {
		n = 1
	}
	// Mean of n iid noisy samples: noise std shrinks by √n.
	noisy := trueCurrent + float64(s.p.ClampNoiseStd/math.Sqrt(n)*s.rng.NormFloat64())
	if s.p.CurrentLSB > 0 {
		noisy = math.Round(noisy/s.p.CurrentLSB) * s.p.CurrentLSB
	}
	if noisy < 0 {
		noisy = 0
	}
	return RegulatorEfficiency * SupplyVoltage * noisy
}

// TracePoint is one timestamped measured-power sample, the unit Figure 2
// plots.
type TracePoint struct {
	Time  float64 // seconds
	Power float64 // watts
}

// Trace is a measured (or estimated) power time series.
type Trace []TracePoint

// Mean returns the average power of the trace, or 0 when empty.
func (t Trace) Mean() float64 {
	if len(t) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range t {
		s += p.Power
	}
	return s / float64(len(t))
}
