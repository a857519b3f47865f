// Package monsoon simulates the external power meter the thesis uses — a
// Monsoon Power Monitor wired to the phone's battery pins (§3.1). It samples
// the modelled power rail at a fixed rate, records the trace, and produces
// the session summaries (average and peak power) every experiment reports.
package monsoon

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"mobicore/internal/metrics"
)

// Config sets up a monitor.
type Config struct {
	// SampleEvery is the sampling interval; the hardware samples at
	// 5 kHz, but experiment-scale traces use a coarser default of 10 ms.
	SampleEvery time.Duration
	// MaxSamples bounds trace memory; 0 means unlimited. When the bound
	// is hit, sampling keeps updating the summary but stops appending to
	// the trace.
	MaxSamples int
}

// DefaultConfig returns the experiment-scale configuration.
func DefaultConfig() Config {
	return Config{SampleEvery: 10 * time.Millisecond}
}

// Monitor integrates rail power and records a sampled trace. Feed it every
// simulation tick with Observe; it emits one trace point per SampleEvery.
// Not safe for concurrent use.
type Monitor struct {
	cfg Config

	series  metrics.Series
	joules  float64
	elapsed time.Duration

	sinceSample time.Duration
	accJoules   float64 // energy within the current sample window
	accTime     time.Duration
	truncated   bool

	// dtSec caches dt.Seconds() for the last observation window seen.
	// Simulation loops observe with a fixed tick, so the conversion runs
	// once per session instead of once per tick; it is the identical float
	// either way.
	dt    time.Duration
	dtSec float64
}

// New builds a monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.SampleEvery <= 0 {
		return nil, errors.New("monsoon: SampleEvery must be positive")
	}
	if cfg.MaxSamples < 0 {
		return nil, errors.New("monsoon: MaxSamples must be non-negative")
	}
	return &Monitor{cfg: cfg}, nil
}

// Observe integrates watts held for dt at simulation time now.
func (m *Monitor) Observe(now time.Duration, watts float64, dt time.Duration) error {
	if watts < 0 {
		return fmt.Errorf("monsoon: negative power sample %v at %v", watts, now)
	}
	if dt <= 0 {
		return errors.New("monsoon: non-positive observation window")
	}
	if dt != m.dt {
		m.dt, m.dtSec = dt, dt.Seconds()
	}
	j := watts * m.dtSec
	m.joules += j
	m.elapsed += dt
	m.accJoules += j
	m.accTime += dt
	m.sinceSample += dt
	if m.sinceSample >= m.cfg.SampleEvery {
		avg := 0.0
		if m.accTime > 0 {
			avg = m.accJoules / m.accTime.Seconds()
		}
		if m.cfg.MaxSamples == 0 || m.series.Len() < m.cfg.MaxSamples {
			m.series.Append(now, avg)
		} else {
			m.truncated = true
		}
		m.sinceSample = 0
		m.accJoules = 0
		m.accTime = 0
	}
	return nil
}

// AverageWatts is total energy over total time — the "total average power
// consumption" number the thesis reports.
func (m *Monitor) AverageWatts() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return m.joules / m.elapsed.Seconds()
}

// Joules returns total integrated energy.
func (m *Monitor) Joules() float64 { return m.joules }

// Elapsed returns total observed time.
func (m *Monitor) Elapsed() time.Duration { return m.elapsed }

// Trace returns the sampled power trace.
func (m *Monitor) Trace() []metrics.Point { return m.series.Points() }

// TraceSummary returns summary statistics over the sampled trace.
func (m *Monitor) TraceSummary() metrics.Summary { return m.series.Summary() }

// Truncated reports whether MaxSamples clipped the trace.
func (m *Monitor) Truncated() bool { return m.truncated }

// Reuse reinitializes the monitor for a new session under cfg, validating
// it exactly like New but keeping the trace buffer's capacity — the arena
// path, where one monitor serves many consecutive cells.
func (m *Monitor) Reuse(cfg Config) error {
	if cfg.SampleEvery <= 0 {
		return errors.New("monsoon: SampleEvery must be positive")
	}
	if cfg.MaxSamples < 0 {
		return errors.New("monsoon: MaxSamples must be non-negative")
	}
	m.cfg = cfg
	m.Reset()
	return nil
}

// Reserve grows the trace buffer to hold at least n samples without further
// allocation, keeping any samples already recorded.
func (m *Monitor) Reserve(n int) { m.series.Reserve(n) }

// Reset clears all accumulated state.
func (m *Monitor) Reset() {
	m.series.Reset()
	m.joules, m.elapsed = 0, 0
	m.sinceSample, m.accJoules, m.accTime = 0, 0, 0
	m.truncated = false
}

// WriteCSV writes the trace as "seconds,watts" rows with a header.
func (m *Monitor) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "watts"}); err != nil {
		return fmt.Errorf("monsoon: writing csv header: %w", err)
	}
	for _, p := range m.series.Points() {
		row := []string{
			strconv.FormatFloat(p.At.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(p.Value, 'f', 6, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("monsoon: writing csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("monsoon: flushing csv: %w", err)
	}
	return nil
}

// traceJSON is the JSON export schema.
type traceJSON struct {
	AverageWatts float64      `json:"average_watts"`
	Joules       float64      `json:"joules"`
	Seconds      float64      `json:"seconds"`
	Samples      []sampleJSON `json:"samples"`
	Summary      summaryJSON  `json:"summary"`
}

type sampleJSON struct {
	Seconds float64 `json:"seconds"`
	Watts   float64 `json:"watts"`
}

type summaryJSON struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

// WriteJSON writes the trace and its summary as a JSON document.
func (m *Monitor) WriteJSON(w io.Writer) error {
	sum := m.series.Summary()
	doc := traceJSON{
		AverageWatts: m.AverageWatts(),
		Joules:       m.joules,
		Seconds:      m.elapsed.Seconds(),
		Summary: summaryJSON{
			Mean: sum.Mean(), Min: sum.Min(), Max: sum.Max(), StdDev: sum.StdDev(),
		},
	}
	points := m.series.Points()
	doc.Samples = make([]sampleJSON, len(points))
	for i, p := range points {
		doc.Samples[i] = sampleJSON{Seconds: p.At.Seconds(), Watts: p.Value}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("monsoon: encoding json: %w", err)
	}
	return nil
}
