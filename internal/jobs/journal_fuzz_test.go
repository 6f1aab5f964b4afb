package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"thermalsched"
)

// fuzzRecordLine renders one well-formed v1 journal line for corpus
// seeding: replay must always recover it, whatever precedes it.
func fuzzRecordLine(id string) []byte {
	rec := record{
		V:           1,
		ID:          id,
		Fingerprint: "00000000deadbeef",
		Flow:        thermalsched.FlowPlatform,
		State:       StateDone,
		SubmittedAt: 1700000000,
		FinishedAt:  1700000001,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return append(blob, '\n')
}

// FuzzJournalReplay feeds arbitrary bytes to the journal replay path.
// The contract under test is the one openJournal documents: replay
// never panics, never fails on corrupt *content* (only on I/O errors),
// skips what it cannot parse, and — the durability property — a valid
// record appended after any prefix garbage survives a reopen.
func FuzzJournalReplay(f *testing.F) {
	valid := fuzzRecordLine("seed")
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                             // torn final write
	f.Add(append(append([]byte{}, valid...), valid[:7]...)) // good line + torn tail
	f.Add([]byte("{\"v\":2,\"id\":\"future\"}\n"))          // incompatible version
	f.Add([]byte("not json at all\n\x00\xff\n{\"v\":1}\n")) // garbage + minimal v1
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.ContainsRune(data, '\n') && len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, replayed, err := openJournal(path)
		if err != nil {
			// Only I/O-level failures may error; corrupt content must
			// be skipped. A plain byte slice cannot cause I/O errors
			// below the 64MB scanner cap, so any error here is a bug.
			t.Fatalf("openJournal rejected content: %v", err)
		}
		for _, rec := range replayed {
			if rec.V != 1 {
				t.Errorf("replay surfaced a record with version %d", rec.V)
			}
		}
		// Durability: append a fresh terminal record after whatever the
		// fuzzer wrote, reopen, and the record must come back.
		fresh := record{
			V: 1, ID: "fuzz-live", Fingerprint: "feedface00000000",
			Flow: "sweep", State: StateDone, SubmittedAt: 42,
		}
		if err := j.append(fresh); err != nil {
			t.Fatalf("append after replay: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, replayed2, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		if len(replayed2) < len(replayed)+1 {
			t.Fatalf("reopen lost records: %d before append, %d after", len(replayed), len(replayed2))
		}
		last := replayed2[len(replayed2)-1]
		if last.ID != fresh.ID || last.Fingerprint != fresh.Fingerprint || last.State != fresh.State {
			t.Errorf("appended record did not survive reopen: got %+v", last)
		}
	})
}
