package swarm

import (
	"context"
	"fmt"

	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/sim"
)

// Swarm telemetry in the process-wide registry (surfaces in /metrics).
var (
	mElections       = obs.Default().Counter("swarm_elections_total")
	mPromotions      = obs.Default().Counter("swarm_promotions_total")
	mFailoverLatency = obs.Default().Histogram("swarm_failover_latency_ticks",
		[]float64{0, 1, 2, 4, 8, 16, 32})
)

// servingCell is the cell holding the mission's relay station; the
// deployment's single serving relay always flies there.
const servingCell = 0

// member is one fleet drone: its serializable state plus the live relay
// hardware model and the watchdog that keeps its shadow lock warm.
type member struct {
	MemberState
	rel *relay.Relay
	wd  *relay.Watchdog
}

// Coordinator manages the fleet for one sortie. Like the supervisor it
// is rebuilt each sortie; everything that must survive the rebuild
// travels in State. The deployment's Relay pointer is always the current
// primary's hardware — promotion is a pointer swap plus a power-on, so
// it completes within the escalation tick that requested it and consumes
// no shared RNG draws (which is what makes a hot failover bit-identical
// to an uninterrupted run).
type Coordinator struct {
	cfg Config
	d   *sim.Deployment

	members []*member
	term    uint64
	primary int
	seed    uint64

	tick       int // coordinator ticks since construction
	lossTick   int // tick the primary went down, -1 when serving
	partitions int // active MeshPartition events

	elections  int
	promotions int
	handoffs   []HandoffRecord

	// faultTarget pins each swarm-directed event to the member it hit at
	// apply time, so a revert heals that member even if the primaryship
	// moved in between.
	faultTarget map[fault.Event]int

	// OnHandoff, when set, is called with each promotion's record before
	// it is committed — the engine stamps the SAR capture-buffer progress
	// there. It must not touch the deployment.
	OnHandoff func(*HandoffRecord)
}

// NewCoordinator builds the fleet over a deployment. A fresh mission
// (empty st.Members) stations members round-robin across cells, elects
// the first primary, and pre-locks the hot shadows on the reader's
// current frequency plan; a carried-over fleet is restored exactly and
// re-elects only if the carried primary is no longer eligible. The
// deployment's relay is replaced by the primary member's hardware.
func NewCoordinator(ctx context.Context, cfg Config, d *sim.Deployment, st State, seed uint64) (*Coordinator, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("swarm: coordinator needs at least one relay")
	}
	if d == nil || d.Relay == nil {
		return nil, fmt.Errorf("swarm: coordinator needs a relay deployment")
	}
	if len(st.Members) != 0 && len(st.Members) != cfg.Relays {
		return nil, fmt.Errorf("swarm: carried fleet has %d members, config has %d",
			len(st.Members), cfg.Relays)
	}

	c := &Coordinator{
		cfg:         cfg,
		d:           d,
		seed:        seed,
		term:        st.Term,
		primary:     st.Primary,
		lossTick:    -1,
		faultTarget: map[fault.Event]int{},
	}
	fresh := len(st.Members) == 0
	for id := 0; id < cfg.Relays; id++ {
		rel := relay.New(d.Relay.Cfg, d.Stream(fmt.Sprintf("swarm-member-%d", id)))
		// The fleet shares the deployment relay's antenna state, so
		// carried-over isolation damage survives the install() swap. (The
		// simplification: antenna damage is fleet-wide, not per-airframe.)
		rel.SetAntennaIsolationDB(d.Relay.AntennaIsolationDB())
		wd, err := relay.NewWatchdog(rel, relay.WatchdogConfig{})
		if err != nil {
			return nil, err
		}
		m := &member{rel: rel, wd: wd}
		if fresh {
			m.Cell = id % cfg.Cells
			m.Alive = true
			m.Powered = true
			m.Pos = c.cellStation(m.Cell)
		} else {
			m.MemberState = st.Members[id]
			if m.Locked {
				rel.Lock(m.ReaderFreq)
				if m.CFOHz != 0 {
					rel.ApplyCFO(m.CFOHz)
				}
			}
		}
		c.members = append(c.members, m)
	}
	if fresh {
		// No carried primary: elect one before launch.
		if !c.elect(ctx) {
			return nil, fmt.Errorf("swarm: no eligible member for the first election")
		}
	} else if c.primary < 0 || c.primary >= len(c.members) {
		return nil, fmt.Errorf("swarm: carried primary %d out of range", c.primary)
	} else if !c.eligible(c.members[c.primary]) {
		// The carried primary died (or browned out) at the last commit and
		// the ground crew could not revive it: hand the mission to a new
		// primary before launch. A fleet with no candidate launches dark
		// and the supervisor aborts the sortie.
		c.elect(ctx)
	}
	// Ground prep: hot shadows are locked onto the reader's current
	// channel before launch (the frequency plan is known); cold spares
	// stay dark until promoted.
	if !cfg.ColdSpares {
		for id, m := range c.members {
			if id == c.primary || !m.Alive || !m.Powered || m.rel.Locked() {
				continue
			}
			m.rel.Lock(d.ReaderCarrierHz())
			c.syncFromRelay(m)
		}
	}
	c.install()
	return c, nil
}

// cellStation is cell k's hover station: the mission relay station for
// the serving cell, spaced back toward the reader for the others.
func (c *Coordinator) cellStation(cell int) geom.Point {
	p := c.d.RelayPlanPos
	return geom.P(p.X-float64(cell)*c.cfg.CellSpacingM, p.Y, p.Z)
}

// install points the deployment at the current primary's hardware and
// programs the deployment's gain plan into its VGAs, so the record and
// the installed relay agree across every promotion (including one after
// a mid-sortie ReprogramGains on the old primary).
func (c *Coordinator) install() {
	m := c.members[c.primary]
	m.rel.SetPlan(c.d.Gains)
	c.d.Relay = m.rel
	c.d.RelayPos = m.Pos
	if c.d.EmbeddedTag != nil {
		c.d.EmbeddedTag.Pos = m.Pos
	}
	c.d.SetRelayPowered(m.Alive && m.Powered)
}

// syncFromRelay refreshes a member's serializable lock state from its
// hardware model.
func (c *Coordinator) syncFromRelay(m *member) {
	m.Locked = m.rel.Locked()
	m.ReaderFreq = m.rel.ReaderFreq()
	m.CFOHz = m.rel.CFOHz()
}

// connected reports whether a cell can donate a shadow to the serving
// cell under the configured topology. An active mesh partition severs
// every cross-cell link.
func (c *Coordinator) connected(cell int) bool {
	if cell == servingCell {
		return true
	}
	if c.partitions > 0 {
		return false
	}
	switch c.cfg.Topology {
	case TopoMinimal:
		return false
	case TopoCrossRow:
		return cell == servingCell-1 || cell == servingCell+1
	default:
		return true
	}
}

// eligible reports whether a member can hold the primaryship right now.
func (c *Coordinator) eligible(m *member) bool {
	return m.Alive && m.Powered && c.connected(m.Cell)
}

// lockServes reports whether a member's carrier lock would serve the
// reader's CURRENT channel — the member-level RelayLockHealthy.
func (c *Coordinator) lockServes(m *member) bool {
	if !m.rel.Locked() {
		return false
	}
	cut := m.rel.Cfg.LPFCutoff
	return abs(m.rel.ReaderFreq()-c.d.ReaderCarrierHz()) < cut && abs(m.rel.CFOHz()) < cut
}

// electionScore is a pure function of (mission seed, term, member ID):
// re-running an election for the same term always ranks the same way,
// which is what lets a killed-and-resumed chaos run replay its
// promotions bit-identically.
func (c *Coordinator) electionScore(term uint64, id int) uint64 {
	return rng.New(c.seed).Split(fmt.Sprintf("swarm-election-%d-%d", term, id)).Uint64()
}

// elect runs one term-numbered election over the eligible members and
// installs the winner as primary. Ranking prefers members whose lock
// already serves the reader's channel (hot shadows), then members
// stationed nearer the serving cell, then the seeded score, with the
// lowest ID as the final tiebreak. Returns false — without consuming a
// term — when no member is eligible.
func (c *Coordinator) elect(ctx context.Context) bool {
	best := -1
	var bestHot bool
	var bestDist int
	var bestScore uint64
	term := c.term + 1
	candidates := 0
	for id, m := range c.members {
		if !c.eligible(m) {
			continue
		}
		candidates++
		hot := c.lockServes(m)
		dist := m.Cell - servingCell
		if dist < 0 {
			dist = -dist
		}
		score := c.electionScore(term, id)
		better := false
		switch {
		case best < 0:
			better = true
		case hot != bestHot:
			better = hot
		case dist != bestDist:
			better = dist < bestDist
		case score != bestScore:
			better = score > bestScore
		}
		if better {
			best, bestHot, bestDist, bestScore = id, hot, dist, score
		}
	}
	if best < 0 {
		return false
	}
	c.term = term
	c.elections++
	mElections.Inc()
	_, span := obs.StartSpan(ctx, "swarm.election")
	span.Int("term", int64(c.term)).
		Int("winner", int64(best)).
		Int("candidates", int64(candidates)).
		Bool("hot", bestHot)
	span.End()
	c.primary = best
	return true
}

// TickCtx is the coordinator's per-tick upkeep, run after the fault
// injector and before the supervisor: it syncs the primary's member
// state from the deployment (the injector and supervisor act on the
// deployment), grounds a dead primary for good (a battery swap cannot
// revive a destroyed airframe), flies serving-cell shadows in formation
// with the primary, and ticks the hot shadows' watchdogs so their
// pre-locks track the reader's channel.
func (c *Coordinator) TickCtx(ctx context.Context) {
	c.tick++
	p := c.members[c.primary]
	if !p.Alive && c.d.RelayPowered() {
		c.d.SetRelayPowered(false)
	}
	p.Powered = c.d.RelayPowered()
	p.Pos = c.d.RelayPos
	c.syncFromRelay(p)
	if p.Alive && p.Powered {
		c.lossTick = -1
	} else if c.lossTick < 0 {
		c.lossTick = c.tick
	}

	for id, m := range c.members {
		if id == c.primary || !m.Alive || !m.Powered {
			continue
		}
		if m.Cell == servingCell {
			// Formation flight: local shadows hold position on the primary,
			// so a promotion inherits the exact capture geometry.
			m.Pos = c.d.RelayPos
		}
		if !c.cfg.ColdSpares {
			m.wd.TickCtx(ctx, shadowSense{d: c.d, m: m})
			c.syncFromRelay(m)
		}
	}
}

// shadowSense adapts the deployment's geometry sense to one shadow
// member's front end at its own position and supply rail.
type shadowSense struct {
	d *sim.Deployment
	m *member
}

// Sense implements relay.CarrierSense.
func (s shadowSense) Sense() (float64, float64, bool) {
	if !s.m.Powered {
		return 0, 0, false
	}
	return s.d.SenseAt(s.m.Pos)
}

// PrimaryWatchdog returns the watchdog bound to the current primary's
// hardware; the supervisor re-fetches it after a failover so its re-lock
// rung always drives the relay that is actually serving.
func (c *Coordinator) PrimaryWatchdog() *relay.Watchdog {
	return c.members[c.primary].wd
}

// PrimaryAlive reports whether the serving airframe still exists — the
// supervisor's battery-swap rung is pointless (and forbidden) on a
// destroyed one.
func (c *Coordinator) PrimaryAlive() bool { return c.members[c.primary].Alive }

// Primary returns the current primary's member ID.
func (c *Coordinator) Primary() int { return c.primary }

// Term returns the current election term.
func (c *Coordinator) Term() uint64 { return c.term }

// FailoverCtx implements the supervisor's failover rung: when the
// primary is lost (dead airframe or dark rail — mere lock trouble stays
// with the watchdog), elect a successor and promote it in place. The
// promotion is the mission's handoff checkpoint event: it records the
// term, the endpoints, the capture-buffer progress, and the outage
// latency, then swaps the deployment onto the successor's hardware.
// Returns whether a promotion happened.
func (c *Coordinator) FailoverCtx(ctx context.Context) bool {
	p := c.members[c.primary]
	if p.Alive && p.Powered {
		return false
	}
	ctx, span := obs.StartSpan(ctx, "swarm.promotion")
	defer span.End()
	old := c.primary
	if !c.elect(ctx) {
		span.Bool("promoted", false)
		return false
	}
	m := c.members[c.primary]
	latency := 0
	if c.lossTick >= 0 {
		latency = c.tick - c.lossTick
	}
	rec := HandoffRecord{
		Term:         c.term,
		FromID:       old,
		ToID:         c.primary,
		Tick:         c.tick,
		LatencyTicks: latency,
		PreLocked:    c.lockServes(m),
	}
	c.install()
	c.lossTick = -1
	c.promotions++
	mPromotions.Inc()
	mFailoverLatency.Observe(float64(latency))
	if c.OnHandoff != nil {
		c.OnHandoff(&rec)
	}
	c.handoffs = append(c.handoffs, rec)
	span.Bool("promoted", true).
		Int("term", int64(rec.Term)).
		Int("from", int64(rec.FromID)).
		Int("to", int64(rec.ToID)).
		Int("latency_ticks", int64(rec.LatencyTicks)).
		Int("sar_captured", int64(rec.SARCaptured)).
		Bool("pre_locked", rec.PreLocked)
	return true
}

// targetMember resolves a swarm-directed event's Param: 0 hits the
// current primary, k ≥ 1 hits member k−1.
func (c *Coordinator) targetMember(ev fault.Event) (*member, int, error) {
	id := int(ev.Param) - 1
	if ev.Param == 0 {
		id = c.primary
	}
	if id < 0 || id >= len(c.members) {
		return nil, 0, fmt.Errorf("swarm: %v targets member %d of a %d-member fleet",
			ev.Class, id, len(c.members))
	}
	return c.members[id], id, nil
}

// ApplyFault implements fault.Target over the fleet: the swarm-directed
// classes hit individual members (or the mesh), everything else passes
// through to the deployment.
func (c *Coordinator) ApplyFault(ev fault.Event) error {
	switch ev.Class {
	case fault.RelayDeath:
		m, id, err := c.targetMember(ev)
		if err != nil {
			return err
		}
		m.Alive = false
		m.Powered = false
		m.rel.Unlock()
		c.syncFromRelay(m)
		c.faultTarget[ev] = id
		if id == c.primary {
			c.d.SetRelayPowered(false)
		}
	case fault.RelayBrownOut:
		m, id, err := c.targetMember(ev)
		if err != nil {
			return err
		}
		m.Powered = false
		m.rel.Unlock()
		c.syncFromRelay(m)
		c.faultTarget[ev] = id
		if id == c.primary {
			c.d.SetRelayPowered(false)
		}
	case fault.MeshPartition:
		c.partitions++
	default:
		return c.d.ApplyFault(ev)
	}
	return nil
}

// RevertFault implements fault.Target: relay death is permanent, a
// brown-out's rail recovers (unlocked — the PLLs lost state), and a
// healed partition reconnects the mesh.
func (c *Coordinator) RevertFault(ev fault.Event) error {
	switch ev.Class {
	case fault.RelayDeath:
		// A destroyed airframe stays destroyed.
	case fault.RelayBrownOut:
		id, ok := c.faultTarget[ev]
		if !ok {
			return nil
		}
		delete(c.faultTarget, ev)
		m := c.members[id]
		if !m.Alive {
			return nil
		}
		m.Powered = true
		if id == c.primary {
			c.d.SetRelayPowered(true)
		}
	case fault.MeshPartition:
		if c.partitions > 0 {
			c.partitions--
		}
	default:
		return c.d.RevertFault(ev)
	}
	return nil
}

// State returns the fleet's serializable carryover. The primary's state
// is re-synced from the deployment so a commit taken between coordinator
// ticks still sees the freshest lock state.
func (c *Coordinator) State() State {
	p := c.members[c.primary]
	p.Powered = c.d.RelayPowered()
	p.Pos = c.d.RelayPos
	c.syncFromRelay(p)
	st := State{Term: c.term, Primary: c.primary}
	for _, m := range c.members {
		st.Members = append(st.Members, m.MemberState)
	}
	return st
}

// Counts returns how many elections and promotions this coordinator ran.
func (c *Coordinator) Counts() (elections, promotions int) {
	return c.elections, c.promotions
}

// Handoffs returns the promotion records in order. The slice is shared;
// do not mutate it.
func (c *Coordinator) Handoffs() []HandoffRecord { return c.handoffs }

// WatchdogStats sums lock supervision across the whole fleet: the
// primary's re-locks and every shadow's pre-lock upkeep.
func (c *Coordinator) WatchdogStats() relay.WatchdogStats {
	var ws relay.WatchdogStats
	for _, m := range c.members {
		s := m.wd.Stats()
		ws.LossEvents += s.LossEvents
		ws.Resweeps += s.Resweeps
		ws.Relocks += s.Relocks
	}
	return ws
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
