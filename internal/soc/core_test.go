package soc

import (
	"errors"
	"testing"
)

func newTestCPU(t *testing.T) *CPU {
	t.Helper()
	cpu, err := NewCPU(4, MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestNewCPUValidation(t *testing.T) {
	if _, err := NewCPU(0, MSM8974Table()); err == nil {
		t.Error("NewCPU(0) should fail")
	}
	if _, err := NewCPU(-1, MSM8974Table()); err == nil {
		t.Error("NewCPU(-1) should fail")
	}
	if _, err := NewCPU(4, nil); err == nil {
		t.Error("NewCPU with nil table should fail")
	}
}

func TestCPUBootState(t *testing.T) {
	cpu := newTestCPU(t)
	if got := cpu.OnlineCount(); got != 4 {
		t.Errorf("boot online count = %d, want 4", got)
	}
	for _, c := range cpu.Snapshot() {
		if c.State != StateIdle {
			t.Errorf("core %d boot state = %v, want idle", c.ID, c.State)
		}
		if c.Freq != 300*MHz {
			t.Errorf("core %d boot freq = %v, want table minimum", c.ID, c.Freq)
		}
	}
}

func TestSetFreq(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.SetFreq(2, 960_000*KHz); err != nil {
		t.Fatal(err)
	}
	f, err := cpu.Freq(2)
	if err != nil {
		t.Fatal(err)
	}
	if f != 960_000*KHz {
		t.Errorf("freq = %v, want 960MHz", f)
	}
	if err := cpu.SetFreq(2, 961*MHz); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("SetFreq(non-OPP) error = %v, want ErrBadFrequency", err)
	}
	if err := cpu.SetFreq(9, 300*MHz); !errors.Is(err, ErrInvalidCore) {
		t.Errorf("SetFreq(bad core) error = %v, want ErrInvalidCore", err)
	}
}

func TestHotplugSemantics(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.Offline(3); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Offline(3); err != nil {
		t.Errorf("offlining an offline core should be a no-op, got %v", err)
	}
	if got := cpu.OnlineCount(); got != 3 {
		t.Fatalf("online count = %d, want 3", got)
	}
	for _, id := range []int{2, 1} {
		if err := cpu.Offline(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := cpu.Offline(0); !errors.Is(err, ErrLastCore) {
		t.Errorf("offlining last core error = %v, want ErrLastCore", err)
	}
	if err := cpu.Online(1); err != nil {
		t.Fatal(err)
	}
	if got := cpu.OnlineCount(); got != 2 {
		t.Errorf("online count after re-online = %d, want 2", got)
	}
}

func TestSetOnlineCount(t *testing.T) {
	cpu := newTestCPU(t)
	tests := []struct {
		target int
		want   int
		ids    []int
	}{
		{2, 2, []int{0, 1}}, // offline from the top
		{4, 4, []int{0, 1, 2, 3}},
		{1, 1, []int{0}},          // core 0 always survives
		{0, 1, []int{0}},          // clamped to 1
		{9, 4, []int{0, 1, 2, 3}}, // clamped to max
	}
	for _, tt := range tests {
		if err := cpu.SetOnlineCount(tt.target); err != nil {
			t.Fatalf("SetOnlineCount(%d): %v", tt.target, err)
		}
		if got := cpu.OnlineCount(); got != tt.want {
			t.Errorf("SetOnlineCount(%d): count = %d, want %d", tt.target, got, tt.want)
		}
		ids := cpu.OnlineIDs()
		if len(ids) != len(tt.ids) {
			t.Fatalf("SetOnlineCount(%d): ids = %v, want %v", tt.target, ids, tt.ids)
		}
		for i := range ids {
			if ids[i] != tt.ids[i] {
				t.Errorf("SetOnlineCount(%d): ids = %v, want %v", tt.target, ids, tt.ids)
				break
			}
		}
	}
}

// TestRunOnOfflineCore: the placement check follows hotplug — work on a
// core is rejected while it is offline and accepted again once it is back.
func TestRunOnOfflineCore(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.Offline(3); err != nil {
		t.Fatal(err)
	}
	work := []uint64{0, 0, 0, 1000}
	if err := cpu.CheckPlacement(work); !errors.Is(err, ErrCoreOffline) {
		t.Errorf("CheckPlacement(work on offline core) error = %v, want ErrCoreOffline", err)
	}
	if err := cpu.CheckPlacement([]uint64{1000, 0, 0, 0}); err != nil {
		t.Errorf("CheckPlacement(work on online core) error = %v", err)
	}
	if err := cpu.Online(3); err != nil {
		t.Fatal(err)
	}
	if err := cpu.CheckPlacement(work); err != nil {
		t.Errorf("CheckPlacement after re-online error = %v", err)
	}
}

func TestCapacityCyclesPerSec(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.SetFreqAll(300 * MHz); err != nil {
		t.Fatal(err)
	}
	if got, want := cpu.CapacityCyclesPerSec(), 4*300e6; got != want {
		t.Errorf("capacity = %g, want %g", got, want)
	}
	if err := cpu.SetOnlineCount(2); err != nil {
		t.Fatal(err)
	}
	if got, want := cpu.CapacityCyclesPerSec(), 2*300e6; got != want {
		t.Errorf("capacity after offlining = %g, want %g", got, want)
	}
}

func TestCoreStateString(t *testing.T) {
	tests := []struct {
		s    CoreState
		want string
	}{
		{StateOffline, "offline"},
		{StateIdle, "idle"},
		{StateActive, "active"},
		{CoreState(42), "CoreState(42)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

// TestRunBatchRejectsOfflineWork: placing work on an offline core is a
// scheduler bug and must fail loudly, and a busy vector must cover every
// core.
func TestRunBatchRejectsOfflineWork(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.Offline(3); err != nil {
		t.Fatal(err)
	}
	err := cpu.CheckPlacement([]uint64{0, 0, 0, 1})
	if !errors.Is(err, ErrCoreOffline) {
		t.Errorf("CheckPlacement(offline work) error = %v, want ErrCoreOffline", err)
	}
	if err := cpu.CheckPlacement([]uint64{0, 0, 0}); !errors.Is(err, ErrInvalidCore) {
		t.Errorf("CheckPlacement(short slice) error = %v, want ErrInvalidCore", err)
	}
	if err := cpu.CheckPlacement([]uint64{1, 1, 1, 0}); err != nil {
		t.Errorf("CheckPlacement(online work) error = %v", err)
	}
}
