package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"thermalsched"
)

// record is one journal line: a terminal evaluation in the shared
// Request/Response wire schema, plus the job-tier envelope. Request
// encodes as the checked request's canonical form, the request that
// ran; replay never reads it back, and it decodes to an empty value. The
// format is append-only JSON lines so a crashed process loses at most
// the final partial line, which replay skips.
type record struct {
	V           int                    `json:"v"`
	ID          string                 `json:"id"`
	Fingerprint string                 `json:"fingerprint"`
	Flow        thermalsched.FlowKind  `json:"flow"`
	State       State                  `json:"state"`
	SubmittedAt int64                  `json:"submittedAt"`
	StartedAt   int64                  `json:"startedAt,omitempty"`
	FinishedAt  int64                  `json:"finishedAt,omitempty"`
	Request     *thermalsched.Checked  `json:"request,omitempty"`
	Response    *thermalsched.Response `json:"response,omitempty"`
	Error       string                 `json:"error,omitempty"`
}

// journal is the append-only on-disk store. Appends are serialized by
// a mutex; replay happens once, before the manager goes concurrent.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// openJournal opens (creating if needed) the journal and replays its
// records. Unparseable lines — a torn final write, or records from an
// incompatible version — are skipped, not fatal: the journal is a
// cache of completed work, and losing an entry only costs one
// re-evaluation.
func openJournal(path string) (*journal, []record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	var records []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20) // campaign responses are large
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.V != 1 {
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	// Position at the end for appends (the scanner consumed the file).
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobs: seeking journal: %w", err)
	}
	// Heal a torn final write: without a trailing newline the next
	// append would glue onto the partial line and both records would be
	// skipped on the following replay — losing an acknowledged append.
	// A separator newline turns the torn fragment into one skippable
	// garbage line and keeps every later record intact.
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobs: inspecting journal tail: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("jobs: healing journal tail: %w", err)
			}
		}
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, records, nil
}

// append writes one record and flushes it so a crash after append
// loses nothing already acknowledged.
func (j *journal) append(rec record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("jobs: appending journal record: %w", err)
	}
	return j.w.Flush()
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
