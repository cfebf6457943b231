package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Op names one interceptable file operation.
type Op string

// The operations a script can target. OpAny matches all of them.
const (
	OpCreate   Op = "create"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpAny      Op = "*"
)

var validOps = map[Op]bool{
	OpCreate: true, OpWrite: true, OpSync: true, OpClose: true,
	OpRename: true, OpRemove: true, OpTruncate: true, OpAny: true,
}

// Rule is one fault-injection directive: after After successful
// matching operations, inject Err on the next Times matching calls
// (Times == 0 means sticky — every call fails until Clear), adding
// Delay to every matching call whether or not an error fires.
type Rule struct {
	Op    Op
	After int           // successes before the rule arms
	Times int           // failures to inject once armed; 0 = sticky
	Err   error         // error to return; nil = EIO
	Delay time.Duration // injected latency on every matching call
	Short int           // an injected write error first passes this many bytes (a short write)
}

// InjectedError wraps an injected failure so logs can tell scripted
// faults from real ones; errors.Is still matches the underlying errno
// (syscall.EIO, syscall.ENOSPC).
type InjectedError struct {
	Op  Op
	Err error
}

func (e *InjectedError) Error() string { return fmt.Sprintf("fault: injected %s error: %v", e.Op, e.Err) }
func (e *InjectedError) Unwrap() error { return e.Err }

// ParseScript parses the `-fault-script` grammar: comma-separated
// rules, each `op[:attr]...` where op is create|write|sync|close|
// rename|remove|truncate|* and the attributes are
//
//	after=N     arm after N successful calls (default 0: immediately)
//	times=N     fail N matching calls once armed (default 1)
//	once        times=1 (the default, spelled out)
//	sticky      fail every matching call until cleared (times=0)
//	err=eio     error class: eio (default) or enospc
//	delay=DUR   add DUR of latency to every matching call
//
// Example: "sync:after=40:times=6:err=eio,write:sticky:err=enospc".
func ParseScript(s string) ([]Rule, error) {
	var rules []Rule
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		r := Rule{Op: Op(strings.ToLower(parts[0])), Times: 1}
		if !validOps[r.Op] {
			return nil, fmt.Errorf("fault: unknown op %q in rule %q", parts[0], spec)
		}
		for _, attr := range parts[1:] {
			key, val, hasVal := strings.Cut(attr, "=")
			switch strings.ToLower(key) {
			case "once":
				r.Times = 1
			case "sticky":
				r.Times = 0
			case "after":
				n, err := strconv.Atoi(val)
				if err != nil || !hasVal || n < 0 {
					return nil, fmt.Errorf("fault: bad after=%q in rule %q", val, spec)
				}
				r.After = n
			case "times":
				n, err := strconv.Atoi(val)
				if err != nil || !hasVal || n < 0 {
					return nil, fmt.Errorf("fault: bad times=%q in rule %q", val, spec)
				}
				r.Times = n
			case "err":
				switch strings.ToLower(val) {
				case "eio":
					r.Err = syscall.EIO
				case "enospc":
					r.Err = syscall.ENOSPC
				default:
					return nil, fmt.Errorf("fault: unknown err=%q in rule %q (want eio|enospc)", val, spec)
				}
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || !hasVal || d < 0 {
					return nil, fmt.Errorf("fault: bad delay=%q in rule %q", val, spec)
				}
				r.Delay = d
			default:
				return nil, fmt.Errorf("fault: unknown attribute %q in rule %q", attr, spec)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty script")
	}
	return rules, nil
}

// ruleState tracks one rule's live counters.
type ruleState struct {
	Rule
	seen  int // successful (non-injected) matching calls so far
	fired int // injections delivered
}

// ScriptFS wraps a base FS and applies a script of fault rules to every
// operation. Safe for concurrent use.
type ScriptFS struct {
	base FS

	mu    sync.Mutex
	rules []*ruleState

	injected atomic.Int64
}

// NewScriptFS builds a fault-injecting FS over base (nil = the real
// filesystem) from the given rules.
func NewScriptFS(base FS, rules ...Rule) *ScriptFS {
	if base == nil {
		base = OS
	}
	s := &ScriptFS{base: base}
	for _, r := range rules {
		rs := &ruleState{Rule: r}
		if rs.Err == nil {
			rs.Err = syscall.EIO
		}
		s.rules = append(s.rules, rs)
	}
	return s
}

// Injected reports how many errors the script has delivered.
func (s *ScriptFS) Injected() int64 { return s.injected.Load() }

// Clear disarms every rule: all subsequent operations pass through.
// Tests use it to end a sticky fault and watch recovery.
func (s *ScriptFS) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if r.Times == 0 { // sticky: retire it
			r.Times = -1
		}
		r.fired = r.Times // finite budgets: mark spent
	}
}

// check runs the script for one operation: sleeps any matching delays,
// then returns the first matching rule's injected error, or nil, with
// that rule's Short.
func (s *ScriptFS) check(op Op) (short int, inject error) {
	var delay time.Duration
	s.mu.Lock()
	for _, r := range s.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		delay += r.Delay
		if inject != nil {
			continue // a rule already claimed this call
		}
		if r.seen < r.After {
			r.seen++
			continue
		}
		switch {
		case r.Times == 0: // sticky
			inject, short = &InjectedError{Op: op, Err: r.Err}, r.Short
		case r.fired < r.Times:
			r.fired++
			inject, short = &InjectedError{Op: op, Err: r.Err}, r.Short
		default:
			r.seen++
		}
	}
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if inject != nil {
		s.injected.Add(1)
	}
	return short, inject
}

func (s *ScriptFS) Create(path string, flag int, perm os.FileMode) (File, error) {
	if _, err := s.check(OpCreate); err != nil {
		return nil, err
	}
	f, err := s.base.Create(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &scriptFile{f: f, fs: s}, nil
}

func (s *ScriptFS) Rename(oldpath, newpath string) error {
	if _, err := s.check(OpRename); err != nil {
		return err
	}
	return s.base.Rename(oldpath, newpath)
}

func (s *ScriptFS) Remove(path string) error {
	if _, err := s.check(OpRemove); err != nil {
		return err
	}
	return s.base.Remove(path)
}

func (s *ScriptFS) Truncate(path string, size int64) error {
	if _, err := s.check(OpTruncate); err != nil {
		return err
	}
	return s.base.Truncate(path, size)
}

// scriptFile routes a file's write/sync/close through the script. An
// injected write error writes nothing — a kernel that rejected the
// write outright — unless its rule sets Short: then the first Short
// bytes land and the error follows, as a write cut short by a failing
// device does.
type scriptFile struct {
	f  File
	fs *ScriptFS
}

func (f *scriptFile) Write(p []byte) (int, error) {
	short, err := f.fs.check(OpWrite)
	if err == nil {
		return f.f.Write(p)
	}
	if short <= 0 {
		return 0, err
	}
	n, werr := f.f.Write(p[:min(short, len(p))])
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (f *scriptFile) Sync() error {
	if _, err := f.fs.check(OpSync); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *scriptFile) Close() error {
	if _, err := f.fs.check(OpClose); err != nil {
		_ = f.f.Close() // release the fd regardless
		return err
	}
	return f.f.Close()
}
