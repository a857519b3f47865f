package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// jsonl renders records as cells-file lines in the given order.
func jsonl(t testing.TB, recs ...Record) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestOpenRejectsUntrustedLines: Open refuses the lines Resume could not
// trust — a key that is not its identity's hash, and one key carrying two
// different records — and names the offending line; an identical repeat
// loads like a single record.
func TestOpenRejectsUntrustedLines(t *testing.T) {
	one, two := testRecord(1), testRecord(2)
	stolen := one
	stolen.Key = two.Key // seed 1's results filed under seed 2's key
	conflict := one
	conflict.EnergyJ += 1
	cases := []struct {
		name    string
		data    []byte
		wantErr string // substring; empty means Open succeeds
		wantLen int
	}{
		{"distinct records", jsonl(t, two, one), "", 2},
		{"identical repeat", jsonl(t, one, two, one), "", 2},
		{"key of another identity", jsonl(t, two, stolen), "line 2: key " + two.Key + " does not match its identity", 0},
		{"conflicting repeat", jsonl(t, one, two, conflict), "line 3: store: conflicting records for key " + one.Key, 0},
		{"blank lines skipped", append([]byte("\n"), jsonl(t, one)...), "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, CellsFile), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if tc.wantErr != "" {
				if err == nil {
					s.Close()
					t.Fatalf("Open accepted the store, want an error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Open error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Len() != tc.wantLen {
				t.Errorf("loaded %d records, want %d", s.Len(), tc.wantLen)
			}
		})
	}
}

// FuzzStoreLoad feeds arbitrary bytes to Open as a cells file. Open must
// never panic; a store it accepts must flush to lines with strictly
// increasing keys that each match their identity, reopen to equal
// Records, and flush again to the same bytes.
func FuzzStoreLoad(f *testing.F) {
	f.Add(jsonl(f, testRecord(1), testRecord(2)))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, CellsFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		recs := s.Records()
		if err := s.Flush(); err != nil {
			s.Close()
			t.Fatalf("flushing an accepted store: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		flushed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(flushed))
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		prev := ""
		for n := 1; sc.Scan(); n++ {
			var rec Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("flushed line %d: %v", n, err)
			}
			if rec.Key <= prev {
				t.Fatalf("flushed line %d: key %q after %q, want strictly increasing", n, rec.Key, prev)
			}
			if rec.Key != rec.Identity.Key() {
				t.Fatalf("flushed line %d: key %q does not match its identity", n, rec.Key)
			}
			prev = rec.Key
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening the flushed store: %v", err)
		}
		defer re.Close()
		if got := re.Records(); !reflect.DeepEqual(got, recs) {
			t.Fatalf("reopened records differ:\n got %+v\nwant %+v", got, recs)
		}
		if err := re.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, flushed) {
			t.Fatal("second flush changed the cells file bytes")
		}
	})
}
