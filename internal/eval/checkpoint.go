package eval

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"hgpart/internal/chaos"
)

// Checkpoint journals completed starts to a JSONL file so an interrupted
// multistart experiment resumes exactly where it stopped: a killed 1000-start
// sweep loses only the starts in flight, and the resumed run reproduces the
// uninterrupted run's aggregate statistics because each start's outcome is a
// pure function of its pre-split seed.
//
// File layout (journal v2): a plain-JSON header line identifying the
// experiment (format version, heuristic name, root seed, start count)
// followed by one framed record per completed start, in completion order:
//
//	{"kind":"header","v":2,"name":"ML","seed":1999,"n":100}
//	@97:1afc09e2:{"kind":"start","start":3,"status":"ok","cut":412,"seconds":0.8,"work":1693412,"attempts":1}
//	@58:77b0c428:{"kind":"start","start":0,"status":"failed","attempts":3,"err":"..."}
//
// Each record is framed as "@<len>:<crc32c>:<json>\n" — payload length in
// bytes and the CRC-32C (Castagnoli) of the payload. The frame turns "trust
// whatever parses" into "verify, then trust": a torn write, a flipped bit,
// or a partially recycled block fails the length or CRC check and the record
// is quarantined instead of silently misread. Resume reports exactly which
// records were damaged (see Quarantined and LostStarts); damaged starts are
// simply re-run from their pre-split seeds, so a corrupted journal degrades
// to recomputation, never to wrong statistics. Records that frame-check but
// are semantically invalid — start index out of [0,n), duplicate of an
// already-loaded start, unknown status — are quarantined too: a duplicate
// must not double-count and an out-of-range index must not write outside the
// results slice.
//
// Journals written before v2 framing (header without "v", bare JSON records)
// are still resumed transparently: the loader detects the version from the
// header and, on a v1 journal, keeps appending v1 records so the file stays
// self-consistent.
//
// Writes are crash-safe: a fresh journal's header is written to a temporary
// file, fsynced and atomically renamed into place (so the journal either
// exists with a valid header or not at all — a crash during creation can
// never leave a truncated half-header a later resume would misread), and
// every record is flushed and fsynced before the harness moves on, so a
// drained or killed run can lose at most the final, partially written line,
// which resume detects, quarantines and drops. Resuming under a different
// name, seed or start count is refused — a journal replayed into the wrong
// experiment would silently fabricate statistics.
//
// All I/O goes through a chaos.FS, so the crash-consistency claims above are
// not aspirational: the harness tests and cmd/hgchaos drive torn writes,
// ENOSPC, failed fsyncs and SIGKILL through the same code paths production
// uses (DESIGN.md §11).
type Checkpoint struct {
	mu   sync.Mutex
	fsys chaos.FS      // immutable after OpenCheckpointFS
	f    chaos.File    //hglint:guardedby mu
	w    *bufio.Writer //hglint:guardedby mu
	// version is the journal format being appended: 1 or 2.
	version int //hglint:guardedby mu
	// needNL means the file ends mid-line (torn tail); repair before appending.
	needNL      bool                //hglint:guardedby mu
	done        map[int]StartResult //hglint:guardedby mu
	quarantined []Quarantined       //hglint:guardedby mu
	err         error               //hglint:guardedby mu
}

// Quarantined describes one damaged or invalid journal record dropped during
// resume. Start is the record's start index when it could be recovered from
// the damaged bytes (best effort — the payload is still never trusted as a
// result), or -1 when it could not.
type Quarantined struct {
	Line   int    `json:"line"`
	Start  int    `json:"start"`
	Reason string `json:"reason"`
	Raw    string `json:"raw"`
}

type checkpointHeader struct {
	Kind string `json:"kind"`
	V    int    `json:"v,omitempty"`
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	N    int    `json:"n"`
}

type startRecord struct {
	Kind     string  `json:"kind"`
	Start    int     `json:"start"`
	Status   string  `json:"status"`
	Cut      int64   `json:"cut,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Work     int64   `json:"work,omitempty"`
	Attempts int     `json:"attempts"`
	Err      string  `json:"err,omitempty"`
}

// journalVersion is the format new journals are created with.
const journalVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameRecord wraps a marshaled record payload in the v2 length+CRC frame,
// newline included.
func frameRecord(payload []byte) []byte {
	crc := crc32.Checksum(payload, castagnoli)
	out := make([]byte, 0, len(payload)+16)
	out = append(out, fmt.Sprintf("@%d:%08x:", len(payload), crc)...)
	out = append(out, payload...)
	return append(out, '\n')
}

// parseFrame validates a v2 frame and returns its payload.
func parseFrame(line []byte) ([]byte, error) {
	if len(line) == 0 || line[0] != '@' {
		return nil, errors.New("missing frame marker")
	}
	rest := line[1:]
	i := bytes.IndexByte(rest, ':')
	if i < 1 {
		return nil, errors.New("missing length field")
	}
	var n int
	for _, ch := range rest[:i] {
		if ch < '0' || ch > '9' {
			return nil, errors.New("malformed length field")
		}
		n = n*10 + int(ch-'0')
		if n > 1<<30 {
			return nil, errors.New("implausible length field")
		}
	}
	rest = rest[i+1:]
	j := bytes.IndexByte(rest, ':')
	if j != 8 {
		return nil, errors.New("missing crc field")
	}
	var want uint32
	for _, ch := range rest[:8] {
		var d uint32
		switch {
		case ch >= '0' && ch <= '9':
			d = uint32(ch - '0')
		case ch >= 'a' && ch <= 'f':
			d = uint32(ch-'a') + 10
		default:
			return nil, errors.New("malformed crc field")
		}
		want = want<<4 | d
	}
	payload := rest[9:]
	if len(payload) != n {
		return nil, fmt.Errorf("length mismatch: frame says %d bytes, line has %d", n, len(payload))
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("crc mismatch: frame says %08x, payload is %08x", want, got)
	}
	return payload, nil
}

// OpenCheckpoint opens (or creates) the journal at path for an experiment
// identified by (name, seed, n), on the real filesystem. See OpenCheckpointFS.
func OpenCheckpoint(path, name string, seed uint64, n int, resume bool) (*Checkpoint, error) {
	return OpenCheckpointFS(chaos.OS(), path, name, seed, n, resume)
}

// OpenCheckpointFS is OpenCheckpoint over an explicit filesystem — the real
// one in production, a chaos.FaultFS under fault injection. With resume set,
// an existing journal with a matching header is loaded and its completed
// starts will be skipped by RunMultistart; a header mismatch is an error.
// Without resume, any existing journal is truncated and a fresh header
// written.
func OpenCheckpointFS(fsys chaos.FS, path, name string, seed uint64, n int, resume bool) (*Checkpoint, error) {
	cp := &Checkpoint{fsys: fsys, version: journalVersion, done: make(map[int]StartResult)}
	if resume {
		if err := cp.load(path, name, seed, n); err != nil {
			return nil, err
		}
	}
	fresh := !(len(cp.done) > 0 || resume && fileHasHeader(fsys, path))
	if fresh {
		hdr := checkpointHeader{Kind: "header", V: journalVersion, Name: name, Seed: seed, N: n}
		if err := createJournal(fsys, path, hdr); err != nil {
			return nil, err
		}
		cp.version = journalVersion
		cp.needNL = false
	}
	if len(cp.quarantined) > 0 {
		writeQuarantine(fsys, path, cp.quarantined)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eval: open checkpoint: %w", err)
	}
	cp.f = f
	cp.w = bufio.NewWriter(f)
	return cp, nil
}

// createJournal writes a journal containing only the header to a temporary
// sibling file, fsyncs it, and atomically renames it over path, then fsyncs
// the directory so the rename itself is durable. A crash anywhere in the
// sequence leaves either the old path (or no file) or a complete new
// journal — never a torn header.
func createJournal(fsys chaos.FS, path string, hdr checkpointHeader) error {
	b, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("eval: encode checkpoint header: %w", err)
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("eval: create checkpoint: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("eval: write checkpoint header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("eval: sync checkpoint header: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("eval: close checkpoint header: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("eval: install checkpoint: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored: not every platform or filesystem supports
// directory fsync, and the rename itself has already succeeded.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// fileHasHeader reports whether path exists and starts with a header line —
// i.e. appending records to it is meaningful.
func fileHasHeader(fsys chaos.FS, path string) bool {
	f, err := fsys.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return false
	}
	var hdr checkpointHeader
	return json.Unmarshal(sc.Bytes(), &hdr) == nil && hdr.Kind == "header"
}

// writeQuarantine dumps the quarantine report next to the journal, one JSON
// line per damaged record, truncating any previous report. Best effort: the
// report is diagnostic — the authoritative effect of quarantine is that the
// affected starts are re-run — so a failure to write it must not fail the
// resume.
func writeQuarantine(fsys chaos.FS, path string, qs []Quarantined) {
	f, err := fsys.OpenFile(path+".quarantine", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	for _, q := range qs {
		b, err := json.Marshal(q)
		if err != nil {
			continue
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			return
		}
	}
	_ = f.Sync()
}

// quarantineLocked files one damaged record, truncating the raw bytes to
// keep the report bounded. Called from load with c.mu held.
func (c *Checkpoint) quarantineLocked(line int, start int, reason string, raw []byte) {
	const maxRaw = 256
	if len(raw) > maxRaw {
		raw = raw[:maxRaw]
	}
	c.quarantined = append(c.quarantined, Quarantined{Line: line, Start: start, Reason: reason, Raw: string(raw)})
}

// salvageStart best-effort extracts the start index from a damaged line so
// the quarantine report can name the lost start. The extracted payload is
// used for reporting only — never as a result.
func salvageStart(line []byte, n int) int {
	payload := line
	if len(line) > 0 && line[0] == '@' {
		if i := bytes.IndexByte(line, '{'); i >= 0 {
			payload = line[i:]
		}
	}
	var rec startRecord
	if json.Unmarshal(payload, &rec) != nil || rec.Kind != "start" || rec.Start < 0 || rec.Start >= n {
		return -1
	}
	return rec.Start
}

// load reads an existing journal, validating the header against the
// experiment identity and collecting completed starts. A missing file is not
// an error (resume of a run that never started is a fresh run). Damaged or
// invalid records are quarantined, not fatal.
func (c *Checkpoint) load(path, name string, seed uint64, n int) error {
	// load runs during construction, before the Checkpoint is shared, but it
	// writes every mu-guarded field — holding the lock keeps the discipline
	// uniform (and sharedguard-checkable) at zero contention cost.
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("eval: open checkpoint for resume: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("eval: read checkpoint: %w", err)
	}
	if len(data) == 0 {
		return nil // empty file: fresh run
	}
	torn := data[len(data)-1] != '\n' // final line has no terminator: torn by a crash
	c.needNL = torn                   // appends must not concatenate onto the damaged tail
	lines := bytes.Split(data, []byte("\n"))
	if !torn {
		lines = lines[:len(lines)-1] // drop the empty slot after the final "\n"
	}

	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Kind != "header" {
		return fmt.Errorf("eval: checkpoint %s has no valid header line", path)
	}
	if hdr.Name != name || hdr.Seed != seed || hdr.N != n {
		return fmt.Errorf("eval: checkpoint %s belongs to experiment (name=%q seed=%d n=%d), not (name=%q seed=%d n=%d)",
			path, hdr.Name, hdr.Seed, hdr.N, name, seed, n)
	}
	version := hdr.V
	if version == 0 {
		version = 1
	}
	c.version = version

	for i, line := range lines[1:] {
		lineNo := i + 2
		last := i == len(lines)-2
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if last && torn {
			c.quarantineLocked(lineNo, salvageStart(line, n), "torn final record (crash mid-write)", line)
			continue
		}
		var payload []byte
		if version >= 2 {
			payload, err = parseFrame(line)
			if err != nil {
				c.quarantineLocked(lineNo, salvageStart(line, n), err.Error(), line)
				continue
			}
		} else {
			payload = line
		}
		var rec startRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			if version < 2 {
				// v1 has no framing, so a mid-file parse failure is
				// indistinguishable from a torn tail followed by newer
				// appends; the only safe reading is to drop the remainder.
				c.quarantineLocked(lineNo, salvageStart(line, n), "unparseable v1 record; dropping remainder of journal", line)
				break
			}
			c.quarantineLocked(lineNo, salvageStart(line, n), "framed payload is not valid JSON", line)
			continue
		}
		if rec.Kind != "start" {
			c.quarantineLocked(lineNo, -1, fmt.Sprintf("unexpected record kind %q", rec.Kind), line)
			continue
		}
		if rec.Start < 0 || rec.Start >= n {
			c.quarantineLocked(lineNo, -1, fmt.Sprintf("start %d out of range [0,%d)", rec.Start, n), line)
			continue
		}
		if _, dup := c.done[rec.Start]; dup {
			c.quarantineLocked(lineNo, rec.Start, fmt.Sprintf("duplicate record for start %d; keeping the first", rec.Start), line)
			continue
		}
		sr := StartResult{
			Start:    rec.Start,
			Resumed:  true,
			Attempts: rec.Attempts,
			Outcome:  Outcome{Cut: rec.Cut, Seconds: rec.Seconds, Work: rec.Work},
		}
		switch rec.Status {
		case "ok":
			sr.Status = StartOK
		case "failed":
			sr.Status = StartFailed
			sr.Err = errors.New(rec.Err)
		default:
			c.quarantineLocked(lineNo, rec.Start, fmt.Sprintf("unknown status %q", rec.Status), line)
			continue
		}
		c.done[rec.Start] = sr
	}
	return nil
}

// Completed returns the journaled result for start i, if any.
func (c *Checkpoint) Completed(i int) (StartResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sr, ok := c.done[i]
	return sr, ok
}

// Resumed returns how many starts were loaded from the journal.
func (c *Checkpoint) Resumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Quarantined returns the damaged or invalid records dropped during resume,
// in journal order. The same report is written to <path>.quarantine.
func (c *Checkpoint) Quarantined() []Quarantined {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Quarantined(nil), c.quarantined...)
}

// LostStarts returns the sorted, de-duplicated start indices of quarantined
// records whose start could be recovered from the damaged bytes and whose
// outcome was actually lost (not resumed via another, intact record) —
// exactly which starts will be recomputed because of journal damage. A
// quarantined duplicate does not appear here: its start survives through
// the first copy. Records too damaged to name a start appear in Quarantined
// with Start == -1 but cannot be listed here.
func (c *Checkpoint) LostStarts() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int]bool)
	var out []int
	for _, q := range c.quarantined {
		if q.Start < 0 || seen[q.Start] {
			continue
		}
		if _, resumed := c.done[q.Start]; resumed {
			continue
		}
		seen[q.Start] = true
		out = append(out, q.Start)
	}
	sort.Ints(out)
	return out
}

// record journals a completed or failed start. Skipped starts are not
// recorded — they have not happened. Errors are retained (see Err) rather
// than propagated so a full disk cannot destroy the in-memory results.
func (c *Checkpoint) record(sr StartResult) {
	if sr.Status == StartSkipped || sr.Resumed {
		return
	}
	rec := startRecord{
		Kind:     "start",
		Start:    sr.Start,
		Status:   sr.Status.String(),
		Cut:      sr.Outcome.Cut,
		Seconds:  sr.Outcome.Seconds,
		Work:     sr.Outcome.Work,
		Attempts: sr.Attempts,
	}
	if sr.Err != nil {
		rec.Err = sr.Err.Error()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeLine(rec); err != nil && c.err == nil {
		c.err = err
	}
}

// writeLine marshals rec, writes it in the journal's format (framed for v2,
// bare for a resumed v1 journal) with a trailing newline, flushes and
// fsyncs, so every record is durable — not merely handed to the kernel —
// once the call returns. A start is worth seconds of CPU; one fsync per
// completed start is noise next to that, and it is what lets a drained
// hgserved promise the journal survives an immediately following power
// loss. If the file ends in a torn line from a previous crash, a repair
// newline is emitted first so the new record cannot concatenate onto the
// damaged bytes. Callers hold c.mu.
//
//hglint:holds c.mu
func (c *Checkpoint) writeLine(rec startRecord) error {
	if c.f == nil {
		return errors.New("eval: checkpoint journal is closed")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("eval: encode checkpoint record: %w", err)
	}
	var line []byte
	if c.version >= 2 {
		line = frameRecord(b)
	} else {
		line = append(b, '\n')
	}
	if c.needNL {
		if err := c.w.WriteByte('\n'); err != nil {
			return fmt.Errorf("eval: repair torn checkpoint tail: %w", err)
		}
		c.needNL = false
	}
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("eval: write checkpoint record: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.f.Sync()
}

// Err returns the first journaling error encountered, if any. A run whose
// checkpoint hit an error still returns complete in-memory results; callers
// should surface Err so the user knows the journal is not trustworthy for a
// future resume.
func (c *Checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes and closes the journal file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	ferr := c.w.Flush()
	cerr := c.f.Close()
	c.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
