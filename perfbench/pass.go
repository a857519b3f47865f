package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
)

// pass is one untraced fleet.Run of a workload's matrix into a fresh
// result store, with its host costs and correctness verdict.
type pass struct {
	cells  int
	wall   time.Duration // fleet.Run, store flush included
	cpu    time.Duration // process user+sys over the pass
	alloc  uint64        // bytes allocated over the pass
	sha    string        // SHA-256 of the store's cells.jsonl
	failed int           // cells that violate a check
	res    *fleet.Result
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs spec into the empty store directory dir and checks every
// executed cell. A run error is returned as such; check violations are
// counted in failed.
func runPass(ctx context.Context, spec fleet.Spec, dir string) (pass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return pass{}, err
	}
	spec.StoreDir = dir
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
	res, err := fleet.Run(ctx, spec)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	if err != nil {
		return pass{}, fmt.Errorf("fleet pass: %w", err)
	}
	sum, err := fileSHA(filepath.Join(dir, store.CellsFile))
	if err != nil {
		return pass{}, err
	}
	p := pass{cells: res.Total, wall: wall, cpu: cpu, alloc: ms.TotalAlloc - alloc0, sha: sum, res: res}
	p.failed = res.Total - len(res.Cells)
	for _, c := range res.Cells {
		if cellProblem(c.Report.EnergyJ, c.Report.AvgUtil) != "" {
			p.failed++
		}
	}
	return p, nil
}

// cellProblem names the first output check a cell fails, or "".
func cellProblem(energyJ, avgUtil float64) string {
	switch {
	case math.IsNaN(energyJ) || math.IsInf(energyJ, 0) || energyJ <= 0:
		return fmt.Sprintf("EnergyJ %v is not finite and positive", energyJ)
	case !(avgUtil >= 0 && avgUtil <= 1):
		return fmt.Sprintf("AvgUtil %v outside [0,1]", avgUtil)
	}
	return ""
}

func fileSHA(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// mobicoreSaving is MobiCore's mean paired energy saving over
// android-default, in percent, across cells matched on platform, workload,
// placer and seed. ok is false when the matrix holds no such pair.
func mobicoreSaving(res *fleet.Result) (pct float64, ok bool) {
	type ctxKey struct {
		platform, workload, placer string
		seed                       int64
	}
	base := map[ctxKey]float64{}
	for _, c := range res.Cells {
		if c.Policy == "android-default" {
			base[ctxKey{c.Platform, c.Workload, c.Placer, c.Seed}] = c.Report.EnergyJ
		}
	}
	var sum float64
	n := 0
	for _, c := range res.Cells {
		if c.Policy != "mobicore" {
			continue
		}
		if e, found := base[ctxKey{c.Platform, c.Workload, c.Placer, c.Seed}]; found {
			sum += (e - c.Report.EnergyJ) / e
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return 100 * sum / float64(n), true
}
