// Package jsonl is the append-only line log under every durable file of the
// tree: the FileStore database, the segmented store's segments and the queue
// journal. One reader (Scan), one writer (Log); whether a torn last line is
// dropped or refused is the caller's policy, stated where it calls Scan.
package jsonl

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Scan calls fn for every newline-terminated line of r (newline stripped) with
// the byte offset it starts at, and stops at the first error. valid is the
// length of that prefix; tail is what follows the last newline: a line whose
// write never finished, or a last line written without one. No line cap: a
// row grows with its campaign's fault count, and what was written reads back.
func Scan(r io.Reader, fn func(off int64, line []byte) error) (valid int64, tail []byte, err error) {
	rd := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			return valid, line, nil
		}
		if err == nil {
			err = fn(valid, line[:len(line)-1])
		}
		if err != nil {
			return valid, nil, err
		}
		valid += int64(len(line))
	}
}

// File is what a Log asks of its file: *os.File, or a test's failing one.
type File interface {
	Write([]byte) (int, error)
	Sync() error
	Truncate(int64) error
	Close() error
}

// Log appends lines to a file that ends where the last acknowledged line
// ended. Its owner serialises the calls.
type Log struct {
	f    File
	n    int64
	sync bool   // every Append fsyncs
	buf  []byte // line + '\n', so that an append is one Write
	err  error  // a failed append could not be undone: the tail is unknown
}

// Open opens the log at path for appending, n bytes long: the prefix the
// caller's Scan accepted. Whatever the file holds past n is cut. With n = 0
// the open itself does that, and creates the file, so a fresh log costs no
// second call; a file that held n bytes a moment ago must still exist.
func Open(path string, n int64, sync bool) (*Log, error) {
	flag := os.O_WRONLY | os.O_APPEND
	if n == 0 {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err == nil && n > 0 {
		if err = f.Truncate(n); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return New(f, n, sync), nil
}

// New is a log over an open append-mode file that is n bytes long.
func New(f File, n int64, sync bool) *Log { return &Log{f: f, n: n, sync: sync} }

// Append writes line and a newline with one Write, plus one Sync on a synced
// log, and returns the offset the line starts at. If either fails the file is
// truncated back to Len before the error is returned: a line is acknowledged
// or absent. If that truncate fails too, the log refuses every later append.
func (l *Log) Append(line []byte) (off int64, err error) {
	if l.err != nil {
		return 0, l.err
	}
	l.buf = append(append(l.buf[:0], line...), '\n')
	if _, err = l.f.Write(l.buf); err == nil && l.sync {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.n); terr != nil {
			l.err = fmt.Errorf("jsonl: tail unknown after a failed append (%v) and truncate: %w", err, terr)
		}
		return 0, err
	}
	off, l.n = l.n, l.n+int64(len(l.buf))
	return off, nil
}

// Len is the length of the acknowledged lines, which is the file's.
func (l *Log) Len() int64 { return l.n }

// Sync fsyncs what Append has not: nothing, on a synced log.
func (l *Log) Sync() error {
	if l.sync {
		return nil
	}
	return l.f.Sync()
}

// Close closes the file; it does not sync it.
func (l *Log) Close() error { return l.f.Close() }
