// Package bbw implements the paper's motivating application: a
// distributed brake-by-wire system (Figure 4). A duplex central unit
// reads the brake pedal and distributes brake force to four simplex
// wheel nodes over a time-triggered bus; each wheel node runs a slip
// controller and drives its brake actuator. Every node is a full
// simulated NLFT (or fail-silent) kernel from internal/kernel, attached
// through internal/node to the internal/ttnet bus, braking a simple
// longitudinal vehicle model.
//
// The package exists to exercise the whole stack end to end: injected
// faults in a wheel-node CPU are masked by TEM mid-braking, a killed
// node degrades braking until it reintegrates, and the stopping distance
// quantifies the system-level effect.
package bbw

import "math"

// Physical constants of the vehicle model.
const (
	// Gravity in m/s².
	gravity = 9.81
	// wheelTau is the wheel-speed relaxation time constant (s): how fast
	// a free-rolling wheel re-synchronizes with the vehicle.
	wheelTau = 0.1
	// brakeGain converts brake force (N) at the wheel into wheel-speed
	// deceleration (m/s² per N), folding in wheel inertia.
	brakeGain = 1.0 / 75.0
)

// Vehicle is a longitudinal braking model with four wheels and a
// slip-dependent tire friction curve. All speeds are m/s.
type Vehicle struct {
	// Mass is the vehicle mass in kg.
	Mass float64
	// Speed is the vehicle's longitudinal speed.
	Speed float64
	// Wheels holds the wheel circumferential speeds.
	Wheels [4]float64
	// Distance is the travelled distance since start (m).
	Distance float64
}

// NewVehicle returns a vehicle rolling at the given speed.
func NewVehicle(massKg, speedMS float64) *Vehicle {
	v := &Vehicle{Mass: massKg, Speed: speedMS}
	for i := range v.Wheels {
		v.Wheels[i] = speedMS
	}
	return v
}

// friction is the tire friction coefficient as a function of slip
// (a simplified Pacejka-style curve): rises to the peak near 15% slip,
// then falls toward the locked-wheel value — which is what makes wheel
// lock lengthen stopping distance and gives the wheel nodes' slip
// controller its purpose.
func friction(slip float64) float64 {
	const (
		peakSlip = 0.15
		muPeak   = 1.0
		muLock   = 0.7
	)
	switch {
	case slip <= 0:
		return 0
	case slip < peakSlip:
		return muPeak * slip / peakSlip
	case slip >= 1:
		return muLock
	default:
		// Linear fall-off from the peak to the locked value.
		return muPeak - (muPeak-muLock)*(slip-peakSlip)/(1-peakSlip)
	}
}

// Slip returns wheel i's slip ratio in [0, 1].
func (v *Vehicle) Slip(i int) float64 {
	if v.Speed <= 0.01 {
		return 0
	}
	s := (v.Speed - v.Wheels[i]) / v.Speed
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Step advances the model by dt seconds under the given per-wheel brake
// forces (N, ≥ 0).
func (v *Vehicle) Step(dt float64, brakeForces [4]float64) {
	if v.Speed <= 0 {
		v.Speed = 0
		return
	}
	normalPerWheel := v.Mass * gravity / 4
	totalRoad := 0.0
	for i := range v.Wheels {
		slip := v.Slip(i)
		road := friction(slip) * normalPerWheel
		totalRoad += road
		// Wheel dynamics: the road accelerates the wheel back toward the
		// vehicle speed; the brake decelerates it.
		relax := (v.Speed - v.Wheels[i]) / wheelTau
		wdot := relax - brakeForces[i]*brakeGain
		v.Wheels[i] += wdot * dt
		if v.Wheels[i] < 0 {
			v.Wheels[i] = 0
		}
		if v.Wheels[i] > v.Speed {
			v.Wheels[i] = v.Speed
		}
	}
	decel := totalRoad / v.Mass
	newSpeed := v.Speed - decel*dt
	if newSpeed < 0 {
		newSpeed = 0
	}
	v.Distance += (v.Speed + newSpeed) / 2 * dt
	v.Speed = newSpeed
}

// Stopped reports whether the vehicle has come to rest.
func (v *Vehicle) Stopped() bool { return v.Speed <= 0.01 }

// IdealStoppingDistance returns the physics bound for stopping from
// speed v0 at peak friction: v0²/(2·μ_peak·g). TestVehicleStopsUnderBraking
// and TestFaultFreeBrakingNLFT bound the simulated stop by it.
func IdealStoppingDistance(v0 float64) float64 {
	return v0 * v0 / (2 * 1.0 * gravity)
}

// LockedStoppingDistance returns the distance with all wheels locked:
// the upper reference TestVehicleStopsUnderBraking and
// TestFaultFreeBrakingNLFT hold the slip-controlled stop below.
func LockedStoppingDistance(v0 float64) float64 {
	return v0 * v0 / (2 * 0.7 * gravity)
}

// clamp bounds x to [lo, hi].
func clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}
