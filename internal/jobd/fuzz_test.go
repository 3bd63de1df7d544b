package jobd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walLines joins WAL records into file contents (helper for the seed
// corpus below).
func walLines(lines ...string) []byte {
	return []byte(strings.Join(lines, "\n") + "\n")
}

// FuzzReplay feeds arbitrary bytes to the write-ahead log replay path.
// The contract under fuzzing: Open must never panic, and whenever it
// succeeds the reconstructed job table must be internally consistent —
// unique ids, valid non-running states, cell indices in range — and the
// (possibly tail-truncated) file must replay to the same table on a
// second Open, stay appendable, and replay the appended record too.
func FuzzReplay(f *testing.F) {
	job := `{"rec":"job","id":"j1","seq":1,"spec":{"type":"array","seed":7,"cells":4}}`
	runJob := `{"rec":"job","id":"j2","seq":2,"spec":{"type":"run","seed":1}}`
	state := `{"rec":"state","id":"j1","state":"running"}`
	cell := `{"rec":"cell","id":"j1","cell":{"index":2,"trap_count":3,"errors":1,"slow":0,"failed":false}}`
	result := `{"rec":"result","id":"j1","summary":{"num_failed":1}}`

	// Well-formed log.
	f.Add(walLines(job, state, cell, result))
	// Torn tail: final line has no newline (must be truncated away).
	f.Add([]byte(job + "\n" + state + "\n" + `{"rec":"cell","id":"j1","ce`))
	// Corrupt JSON mid-file (must be rejected, not panic).
	f.Add(walLines(job, `{"rec":"state","id":"j1",`, cell))
	// Duplicate job ids and records for unknown jobs.
	f.Add(walLines(job, job))
	f.Add(walLines(state, cell, result))
	// Out-of-order: lifecycle records before the submission.
	f.Add(walLines(state, job, cell))
	// Duplicate cell checkpoints and out-of-range indices.
	f.Add(walLines(job, cell, cell, `{"rec":"cell","id":"j1","cell":{"index":99}}`))
	// Unknown record kind, empty and blank-line-only files.
	f.Add(walLines(`{"rec":"wat","id":"x"}`))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add(walLines(job, runJob, state, `{"rec":"state","id":"j2","state":"done"}`))
	// Running job at crash: must come back queued.
	f.Add(walLines(job, state))
	// Huge/odd sequence numbers and deep JSON noise.
	f.Add(walLines(`{"rec":"job","id":"j3","seq":18446744073709551615,"spec":{"type":"run","seed":0}}`))
	f.Add([]byte(`{"rec":[[[[{}]]]],"id":{"a":1}}` + "\n"))
	f.Add([]byte("\x00\x01\x02garbage\nmore\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("writing corpus file: %v", err)
		}
		st, jobs, maxSeq, err := Open(path)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		checkConsistent(t, jobs, maxSeq)
		if err := st.Close(); err != nil {
			t.Fatalf("closing store: %v", err)
		}

		// Open truncated the torn tail (if any), so a second replay must
		// accept the file and rebuild the identical table.
		st2, jobs2, maxSeq2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after successful open failed: %v", err)
		}
		if len(jobs2) != len(jobs) || maxSeq2 != maxSeq {
			t.Fatalf("replay not stable: %d jobs/seq %d, then %d jobs/seq %d",
				len(jobs), maxSeq, len(jobs2), maxSeq2)
		}
		for i := range jobs {
			if jobs[i].ID != jobs2[i].ID || jobs[i].State != jobs2[i].State || len(jobs[i].cells) != len(jobs2[i].cells) {
				t.Fatalf("replay not stable at job %d: %+v vs %+v", i, jobs[i], jobs2[i])
			}
		}

		// The store must stay appendable, and the appended record must
		// replay (the WAL grows, it never wedges).
		if len(jobs2) > 0 {
			if err := st2.AppendState(jobs2[0].ID, StateCanceled, "fuzz"); err != nil {
				t.Fatalf("append after replay: %v", err)
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("closing store: %v", err)
		}
		st3, jobs3, _, err := Open(path)
		if err != nil {
			t.Fatalf("replay after append failed: %v", err)
		}
		if len(jobs2) > 0 && jobs3[0].State != StateCanceled {
			t.Fatalf("appended state did not replay: %v", jobs3[0].State)
		}
		if err := st3.Close(); err != nil {
			t.Fatalf("closing store: %v", err)
		}
	})
}

// checkConsistent asserts the replayed job table invariants.
func checkConsistent(t *testing.T, jobs []*Job, maxSeq uint64) {
	t.Helper()
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.ID == "" {
			t.Fatalf("replayed job with empty id")
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job id %q survived replay", j.ID)
		}
		seen[j.ID] = true
		if !j.State.valid() {
			t.Fatalf("job %s replayed with invalid state %q", j.ID, j.State)
		}
		if j.State == StateRunning {
			t.Fatalf("job %s still running after replay (must normalise to queued)", j.ID)
		}
		if j.Seq > maxSeq {
			t.Fatalf("job %s seq %d exceeds reported max %d", j.ID, j.Seq, maxSeq)
		}
		if j.cells == nil {
			t.Fatalf("job %s replayed with nil cell map", j.ID)
		}
		for idx := range j.cells {
			if idx < 0 || (j.CellsTotal > 0 && idx >= j.CellsTotal) {
				t.Fatalf("job %s cell index %d outside [0,%d)", j.ID, idx, j.CellsTotal)
			}
		}
	}
}

// FuzzSpec feeds arbitrary bytes to spec decoding as POST /jobs does it:
// strict decoding (an unknown field is refused), then the defaults.
// Every spec Validate accepts must sit within the size limits, translate
// to the montecarlo config its leases run, and encode for the WAL.
func FuzzSpec(f *testing.F) {
	for _, body := range []string{
		`{"type":"array","seed":42,"cells":3,"with_rtn":false}`,
		`{"type":"run","seed":7}`,
		`{"type":"rare_array","seed":1,"cells":32,"tilt_ev":-0.01}`,
		`{"type":"array","cells":67108864}`,
		`{"type":"array","cells":2,"workers":100000,"pattern":"0101","retry":{"max":3,"backoff_ms":1}}`,
		`{"type":"array","cells":2,"tech":"32nm","vdd_frac":0.9,"scale":30,"retry":{"max_backoff_ms":999999999}}`,
		`{"type":"array","cells":1,"bogus_field":1}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		spec = spec.withDefaults()
		if spec.Validate() != nil {
			return
		}
		if r := spec.Retry; spec.Cells > MaxCells || spec.Workers > MaxWorkers || len(spec.Pattern) > MaxPatternBits ||
			r.Max > MaxCellRetries || r.BackoffMS > MaxRetryBackoffMS || r.MaxBackoffMS > MaxRetryBackoffMS {
			t.Fatalf("Validate accepted a spec over a size limit: %+v", spec)
		}
		if _, err := spec.ArrayConfig(); err != nil {
			t.Fatalf("Validate accepted %+v, ArrayConfig refused it: %v", spec, err)
		}
		if _, err := json.Marshal(spec); err != nil {
			t.Fatalf("accepted spec %+v does not encode for the WAL: %v", spec, err)
		}
	})
}
