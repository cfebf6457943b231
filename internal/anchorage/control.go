package anchorage

import (
	"time"

	"alaska/internal/rt"
)

// ControllerState is the control algorithm's state (§4.3).
type ControllerState int

const (
	// Waiting: wake every WakeInterval and compare fragmentation to F_ub.
	Waiting ControllerState = iota
	// Defragmenting: run α-bounded partial passes, sleeping
	// T_defrag/O_ub between them to cap the time fraction spent moving.
	Defragmenting
)

// Pass carries out one relocation pass that moves at most budget bytes. It
// reports the bytes moved and T_defrag, the time the pass counts as taking,
// which the controller's overhead bound divides by O_ub.
type Pass func(budget uint64) (moved uint64, took time.Duration)

// BarrierPass is the stop-the-world relocation step the paper's figures
// run: DefragPass inside a barrier on r, initiated by initiator (nil for a
// detached control context). T_defrag is simulated from MoveBandwidth, so
// the figures are deterministic; even a pass that moves nothing costs a
// minimum pause for the rendezvous and the scan.
func BarrierPass(svc *Service, r *rt.Runtime, initiator *rt.Thread) Pass {
	const minPause = 100 * time.Microsecond
	return func(budget uint64) (uint64, time.Duration) {
		var moved uint64
		r.Barrier(initiator, func(scope *rt.BarrierScope) {
			moved = svc.DefragPass(scope, budget)
		})
		took := time.Duration(float64(moved) / svc.cfg.MoveBandwidth * float64(time.Second))
		return moved, max(took, minPause)
	}
}

// ConcurrentPass is the pause-free relocation step (§7):
// ConcurrentDefragPass, with T_defrag the pass's measured wall time.
func ConcurrentPass(svc *Service) Pass {
	return func(budget uint64) (uint64, time.Duration) {
		start := time.Now()
		moved := svc.ConcurrentDefragPass(budget)
		return moved, time.Since(start)
	}
}

// Controller is the §4.3 control state machine. It is driven by an
// explicit clock (Step), so the RSS-over-time experiments run it on
// simulated time and alaskad on the time since it started; what a pass
// is — a barrier or the pause-free mover — is the Pass it was built with.
type Controller struct {
	svc  *Service
	cfg  Config
	pass Pass

	state    ControllerState
	nextWake time.Duration
}

// NewController returns a controller for svc that follows cfg's bounds
// (F_lb, F_ub, O_ub, α, WakeInterval) and carries out each pass with pass.
func NewController(svc *Service, cfg Config, pass Pass) *Controller {
	return &Controller{svc: svc, cfg: cfg, pass: pass}
}

// State returns the current controller state.
func (c *Controller) State() ControllerState { return c.state }

// Step advances the controller to time now. If the controller decides to
// defragment, it runs one pass and returns the pass's T_defrag (for
// BarrierPass, the simulated stop-the-world pause); otherwise it returns
// zero.
func (c *Controller) Step(now time.Duration) time.Duration {
	if now < c.nextWake {
		return 0
	}
	if c.state == Waiting {
		if c.svc.Fragmentation() <= c.cfg.FragHigh {
			c.nextWake = now + c.cfg.WakeInterval
			return 0
		}
		c.state = Defragmenting
	}
	return c.defragOnce(now)
}

// defragOnce runs one α-bounded partial pass and schedules the next wake
// per the overhead bound: sleep T_defrag / O_ub.
func (c *Controller) defragOnce(now time.Duration) time.Duration {
	budget := uint64(c.cfg.Alpha * float64(c.svc.HeapExtent()))
	if budget == 0 {
		budget = 1 << 20
	}
	moved, tDefrag := c.pass(budget)
	if moved == 0 || c.svc.Fragmentation() < c.cfg.FragLow {
		// Goal reached or out of opportunities: back to waiting.
		c.state = Waiting
		c.nextWake = now + c.cfg.WakeInterval
		return tDefrag
	}
	// Cap the defrag duty cycle at O_ub.
	sleep := time.Duration(float64(tDefrag) / c.cfg.OverheadHigh)
	if sleep < c.cfg.WakeInterval/8 {
		sleep = c.cfg.WakeInterval / 8
	}
	c.nextWake = now + sleep
	return tDefrag
}
