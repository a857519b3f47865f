package soc

import (
	"errors"
	"fmt"
)

// CoreState is the power state of a single CPU core (§2.1 of the thesis).
type CoreState int

// The three states the paper distinguishes. Active executes instructions at
// the programmed frequency; Idle is online but not executing (it still leaks
// because the rail stays up); Offline is the deepest state, consuming almost
// nothing, reachable only through hotplug.
const (
	StateOffline CoreState = iota + 1
	StateIdle
	StateActive
)

// String implements fmt.Stringer.
func (s CoreState) String() string {
	switch s {
	case StateOffline:
		return "offline"
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Errors returned by core and CPU operations.
var (
	ErrCoreOffline  = errors.New("soc: core is offline")
	ErrLastCore     = errors.New("soc: cannot offline the last online core")
	ErrInvalidCore  = errors.New("soc: invalid core id")
	ErrBadFrequency = errors.New("soc: frequency is not an operating point")
)

// Core is one CPU core: its hotplug state and programmed operating point.
// It keeps no execution history — a core is online (StateIdle) or offline,
// and whether it executed in a given window is the scheduler's report, not
// core state. Core is not safe for concurrent use, like its owning CPU.
type Core struct {
	id    int
	table *OPPTable

	state  CoreState
	opp    OPP
	oppIdx int // opp's position on table
}

// newCore constructs an online, idle core at the table's minimum frequency.
func newCore(id int, table *OPPTable) *Core {
	return &Core{id: id, table: table, state: StateIdle, opp: table.Min()}
}

// ID returns the core's index within its CPU.
func (c *Core) ID() int { return c.id }

// State returns the core's hotplug state: StateIdle while online,
// StateOffline otherwise.
func (c *Core) State() CoreState { return c.state }

// Online reports whether the core is online.
func (c *Core) Online() bool { return c.state != StateOffline }

// Freq returns the core's programmed frequency. Offline cores report the
// frequency they will resume at.
func (c *Core) Freq() Hz { return c.opp.Freq }

// Volt returns the supply voltage of the core's programmed operating point.
func (c *Core) Volt() Volt { return c.opp.Volt }

// OPP returns the core's full programmed operating point.
func (c *Core) OPP() OPP { return c.opp }

// setFreq programs an exact operating point.
func (c *Core) setFreq(freq Hz) error {
	i := c.table.IndexOf(freq)
	if i < 0 {
		return fmt.Errorf("%w: %v", ErrBadFrequency, freq)
	}
	c.opp, c.oppIdx = c.table.At(i), i
	return nil
}

// CPU is a multi-core processor with per-core DVFS (each core has its own
// rail, as on the MSM8974) and hotplug, organized as one or more clusters
// (frequency domains). It is configuration only — the online mask and each
// core's operating point — and keeps no per-window execution state: a
// window's busy time lives in the scheduler's result and the caller's
// snapshot mirror. A CPU has a single owner (each simulation builds its
// own) and is not safe for concurrent use.
type CPU struct {
	cores       []*Core
	table       *OPPTable // first cluster's table, the homogeneous view
	clusters    []Cluster
	coreCluster []int // core id -> cluster index
	coreRank    []int // core id -> efficiency rank; nil when homogeneous
	numRanks    int
}

// NewCPU builds a homogeneous CPU with n identical cores sharing one OPP
// table — a single-cluster SoC. All cores start online (idle) at the
// minimum frequency, which is where a freshly booted kernel leaves them.
func NewCPU(n int, table *OPPTable) (*CPU, error) {
	if n <= 0 {
		return nil, fmt.Errorf("soc: core count must be positive, got %d", n)
	}
	if table == nil || table.Len() == 0 {
		return nil, ErrEmptyTable
	}
	return NewClusteredCPU([]Cluster{{Name: "cpu", NumCores: n, Table: table}})
}

// NumCores returns the total number of cores, online or not.
func (c *CPU) NumCores() int { return len(c.cores) }

// Table returns the first cluster's OPP table. On a homogeneous CPU this is
// the shared table; heterogeneous callers should resolve tables per cluster
// via ClusterTable.
func (c *CPU) Table() *OPPTable { return c.table }

// OnlineCount returns the number of online cores.
func (c *CPU) OnlineCount() int {
	n := 0
	for _, core := range c.cores {
		if core.Online() {
			n++
		}
	}
	return n
}

// OnlineIDs returns the ids of all online cores in ascending order.
func (c *CPU) OnlineIDs() []int {
	ids := make([]int, 0, len(c.cores))
	for _, core := range c.cores {
		if core.Online() {
			ids = append(ids, core.id)
		}
	}
	return ids
}

// CoreSnapshot is a value copy of one core, safe to hold across ticks. A
// CPU reports online cores as StateIdle; a scheduler that keeps a snapshot
// as its view of the CPU marks the cores that executed in its window
// StateActive. OPPIndex is the programmed point's position on the core's
// cluster ladder, as setting the frequency resolved it, so per-tick
// consumers index per-OPP tables (power.CoreLoad) without searching.
type CoreSnapshot struct {
	ID       int
	Cluster  int // owning cluster index; 0 on homogeneous CPUs
	State    CoreState
	Freq     Hz
	Volt     Volt
	OPPIndex int
}

// Snapshot captures the state of every core.
func (c *CPU) Snapshot() []CoreSnapshot {
	return c.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into dst when it has the capacity,
// so per-tick callers can reuse one buffer and keep the hot loop
// allocation-free. It returns the filled slice (dst's backing array
// when it fits, a fresh one otherwise).
//
//mobicore:hotpath
func (c *CPU) SnapshotInto(dst []CoreSnapshot) []CoreSnapshot {
	if cap(dst) < len(c.cores) {
		//mobilint:ignore one-time buffer growth; steady-state callers pass a full-size buffer
		dst = make([]CoreSnapshot, len(c.cores))
	}
	dst = dst[:len(c.cores)]
	for i, core := range c.cores {
		dst[i] = CoreSnapshot{
			ID:       core.id,
			Cluster:  c.coreCluster[i],
			State:    core.state,
			Freq:     core.opp.Freq,
			Volt:     core.opp.Volt,
			OPPIndex: core.oppIdx,
		}
	}
	return dst
}

// SetFreq programs core id to the exact operating frequency freq.
func (c *CPU) SetFreq(id int, freq Hz) error {
	core, err := c.core(id)
	if err != nil {
		return err
	}
	return core.setFreq(freq)
}

// SetFreqAll programs every online core to freq (global DVFS). freq must be
// an operating point of every cluster's table, so on heterogeneous CPUs use
// SetClusterFreq per domain instead.
func (c *CPU) SetFreqAll(freq Hz) error {
	for _, cl := range c.clusters {
		if cl.Table.IndexOf(freq) < 0 {
			return fmt.Errorf("%w: %v (cluster %s)", ErrBadFrequency, freq, cl.Name)
		}
	}
	for _, core := range c.cores {
		if core.Online() {
			if err := core.setFreq(freq); err != nil {
				return err
			}
		}
	}
	return nil
}

// Freq returns core id's programmed frequency.
func (c *CPU) Freq(id int) (Hz, error) {
	core, err := c.core(id)
	if err != nil {
		return 0, err
	}
	return core.opp.Freq, nil
}

// Online brings core id online (into the idle state). Bringing an online
// core online is a no-op, matching the kernel's hotplug semantics.
func (c *CPU) Online(id int) error {
	core, err := c.core(id)
	if err != nil {
		return err
	}
	if core.state == StateOffline {
		core.state = StateIdle
	}
	return nil
}

// Offline removes core id from service. The last online core cannot be
// offlined: the kernel forbids it and so do we, because a zero-core system
// has no meaning.
func (c *CPU) Offline(id int) error {
	core, err := c.core(id)
	if err != nil {
		return err
	}
	if core.state == StateOffline {
		return nil
	}
	online := 0
	for _, other := range c.cores {
		if other.Online() {
			online++
		}
	}
	if online <= 1 {
		return ErrLastCore
	}
	core.state = StateOffline
	return nil
}

// SetOnlineCount onlines/offlines cores so that exactly n are online.
// Cores are onlined lowest-id first and offlined highest-id first, the
// convention mpdecision follows (core 0 stays up). n is clamped to [1, max].
func (c *CPU) SetOnlineCount(n int) error {
	if n < 1 {
		n = 1
	}
	if n > len(c.cores) {
		n = len(c.cores)
	}
	online := 0
	for _, core := range c.cores {
		if core.Online() {
			online++
		}
	}
	// Online additional cores from the lowest id.
	for i := 0; online < n && i < len(c.cores); i++ {
		if !c.cores[i].Online() {
			c.cores[i].state = StateIdle
			online++
		}
	}
	// Offline surplus cores from the highest id.
	for i := len(c.cores) - 1; online > n && i > 0; i-- {
		if c.cores[i].Online() {
			c.cores[i].state = StateOffline
			online--
		}
	}
	return nil
}

// CheckPlacement validates one scheduling window's per-core busy time
// against the online mask: busyNanos must have one entry per core
// (ErrInvalidCore otherwise), and an offline core must have none
// (ErrCoreOffline) — the scheduler must never place work there. It changes
// nothing; the CPU keeps no execution accounting.
//
//mobicore:hotpath
func (c *CPU) CheckPlacement(busyNanos []uint64) error {
	if len(busyNanos) != len(c.cores) {
		return fmt.Errorf("%w: batch of %d busy entries for %d cores", ErrInvalidCore, len(busyNanos), len(c.cores))
	}
	for i, b := range busyNanos {
		if b > 0 && !c.cores[i].Online() {
			return fmt.Errorf("%w: core %d", ErrCoreOffline, i)
		}
	}
	return nil
}

// CapacityCyclesPerSec returns the aggregate cycles/second of all online
// cores at their current frequencies — the headroom the scheduler has.
func (c *CPU) CapacityCyclesPerSec() float64 {
	var total float64
	for _, core := range c.cores {
		if core.Online() {
			total += float64(core.opp.Freq)
		}
	}
	return total
}

func (c *CPU) core(id int) (*Core, error) {
	if id < 0 || id >= len(c.cores) {
		return nil, fmt.Errorf("%w: %d (have %d cores)", ErrInvalidCore, id, len(c.cores))
	}
	return c.cores[id], nil
}
