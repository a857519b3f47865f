package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/metrics"
)

// readPathReps is how many times each store and report operation is
// timed; the median is reported.
const readPathReps = 5

// timeMedian runs op reps times and returns its median duration in ms.
func timeMedian(reps int, op func() (time.Duration, error)) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		d, err := op()
		if err != nil {
			return 0, err
		}
		ms[i] = float64(d) / 1e6
	}
	return median(ms), nil
}

// timed measures one call of f.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// readPath times the store's write and read paths and the fleet's
// store-backed aggregation on dir, the full store of one untraced pass.
// scratch is a directory it may empty and reuse.
func readPath(ctx context.Context, spec fleet.Spec, dir, scratch string) ([]metric, error) {
	info, err := os.Stat(filepath.Join(dir, store.CellsFile))
	if err != nil {
		return nil, err
	}
	var recs []store.Record
	openMS, err := timeMedian(readPathReps, func() (time.Duration, error) {
		return timed(func() error {
			st, err := store.Open(dir)
			if err != nil {
				return err
			}
			recs = st.Records()
			return st.Close()
		})
	})
	if err != nil {
		return nil, err
	}
	flushMS, err := timeMedian(readPathReps, func() (time.Duration, error) {
		if err := os.RemoveAll(scratch); err != nil {
			return 0, err
		}
		st, err := store.Open(scratch)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		for _, r := range recs {
			st.Put(r)
		}
		return timed(st.Flush)
	})
	if err != nil {
		return nil, err
	}
	resumeMS, err := timeMedian(readPathReps, func() (time.Duration, error) {
		spec := spec
		spec.StoreDir, spec.Resume = dir, true
		return timed(func() error {
			res, err := fleet.Run(ctx, spec)
			if err == nil && res.Cached != res.Total {
				err = fmt.Errorf("resume executed %d of %d cells", res.Total-res.Cached, res.Total)
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	reportMS, err := timeMedian(readPathReps, func() (time.Duration, error) {
		return timed(func() error {
			res, err := fleet.LoadStoreResult(dir)
			if err != nil {
				return err
			}
			if err := res.WriteText(io.Discard); err != nil {
				return err
			}
			return res.WriteCSV(io.Discard)
		})
	})
	if err != nil {
		return nil, err
	}
	diffMS, err := timeMedian(readPathReps, func() (time.Duration, error) {
		return timed(func() error {
			d, err := fleet.LoadStoreDiff(dir, dir)
			if err == nil && d.Matched != len(recs) {
				err = fmt.Errorf("self diff matched %d of %d cells", d.Matched, len(recs))
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{name: "store.flush_ms", unit: "ms", value: flushMS},
		{name: "store.open_ms", unit: "ms", value: openMS},
		{name: "store.bytes_per_cell", unit: "B", value: float64(info.Size()) / float64(len(recs))},
		{name: "fleet.resume_ms", unit: "ms", value: resumeMS},
		{name: "fleet.report_ms", unit: "ms", value: reportMS},
		{name: "fleet.diff_ms", unit: "ms", value: diffMS},
	}, nil
}

// median is the repetitions' nearest-rank median; 0 when there are none.
func median(vals []float64) float64 {
	m, _ := metrics.PercentileOf(vals, 50)
	return m
}
