// Package chaos is the crash-consistency test bed for the storage and
// service tiers: an injectable filesystem and clock abstraction whose fault
// schedules are pure functions of a seed, so every chaos experiment is
// replayable the same way every partitioning experiment is.
//
// The paper's methodology holds that experimental results are meaningful
// only when runs are reproducible and reported losslessly. A multistart
// sweep that silently drops or corrupts journaled starts after a crash
// fabricates statistics exactly the way the paper warns against — so the
// journal code is written against the FS interface here, and tests (and the
// cmd/hgchaos harness) substitute a FaultFS that injects torn writes, short
// writes, ENOSPC, fsync failures, latency and process kills at exact,
// seed-determined points. See DESIGN.md §11.
package chaos

import (
	"io"
	"os"
)

// File is the subset of *os.File the journal layer uses. Implementations
// must be safe for the single-writer discipline the journal follows (one
// goroutine writes at a time, guarded by the journal's own mutex).
type File interface {
	io.Reader
	io.Writer
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem surface the checkpoint journal and service storage
// paths go through. The production implementation (OS) delegates to package
// os; FaultFS wraps any FS with a deterministic fault schedule.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only (files and directories; directories are
	// opened only to fsync them after a rename).
	Open(name string) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
}

// osFS is the passthrough production filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

// OS returns the real filesystem.
func OS() FS { return osFS{} }

// SelfKill delivers an uncatchable SIGKILL to the current process — the
// default crash action of a FaultFS rule with Crash set. Unlike os.Exit it
// models the failure the journal must survive: no deferred functions run,
// no buffers flush, the process simply stops mid-operation. It never
// returns; if signal delivery is somehow delayed, it blocks forever rather
// than letting execution continue past a configured crash point.
func SelfKill() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {}
}
