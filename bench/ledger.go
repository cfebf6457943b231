package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"alaska/internal/handle"
	"alaska/internal/kv"
	"alaska/internal/mem"
	"alaska/internal/rt"
	"alaska/internal/wal"
)

// The ledger measures each layer from outside, by timing calls into its
// public functions on one in-process fixture: a ShardedStore of `objects`
// values of 512 B on the anchorage backend, whose Space, handle table and
// runtime the lower rows use directly, visited in shuffled order. One timing
// is a batch of calls; a row is the median over the batches. A _par row runs
// GOMAXPROCS goroutines at once and divides the wall time by all their
// calls, so a layer that scales reads 1/GOMAXPROCS of its serial row and a
// layer behind one lock reads the same or worse.
type ledgerSize struct {
	objects, batches, batch, defragRuns int
}

var fullLedger = ledgerSize{objects: 20000, batches: 120, batch: 1024, defragRuns: 5}

const ledgerValue = 512

// row times batches of n calls to f and returns the median ns per call.
// f gets the worker number and the index of the call, which rises across
// batches so that a row walks the whole fixture.
func (z ledgerSize) row(workers int, f func(w, i int)) float64 {
	per := make([]float64, z.batches)
	for b := range per {
		var wg sync.WaitGroup
		t0 := time.Now()
		if workers == 1 {
			for i := b * z.batch; i < (b+1)*z.batch; i++ {
				f(0, i)
			}
		} else {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := b * z.batch; i < (b+1)*z.batch; i++ {
						f(w, i+w*7919)
					}
				}()
			}
			wg.Wait()
		}
		per[b] = float64(time.Since(t0)) / float64(z.batch*workers)
	}
	return median(per)
}

type kvFixture struct {
	store *kv.ShardedStore
	sess  []kv.Session // one per worker
	keys  [][]byte     // shuffled
	bufs  [][]byte
	value []byte
}

func newKVFixture(z ledgerSize, b kv.Backend, order []int, workers int) (*kvFixture, error) {
	f := &kvFixture{store: kv.NewShardedStore(b, shards, 0), value: appendValue(nil, 0, 1, ledgerValue)}
	for w := 0; w < workers; w++ {
		f.sess = append(f.sess, f.store.NewSession())
		f.bufs = append(f.bufs, make([]byte, 0, ledgerValue))
	}
	for _, k := range order {
		key := appendKey(nil, uint32(k))
		f.keys = append(f.keys, key)
		if _, err := f.store.SetExBytes(f.sess[0], key, f.value, kv.SetAlways, time.Time{}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *kvFixture) close() {
	for _, s := range f.sess {
		_ = s.Close()
	}
}

func (f *kvFixture) get(w, i int) {
	f.bufs[w], _, _ = f.store.GetInto(f.sess[w], f.keys[i%len(f.keys)], f.bufs[w])
}

func (f *kvFixture) set(w, i int) {
	_, _ = f.store.SetExBytes(f.sess[w], f.keys[i%len(f.keys)], f.value, kv.SetAlways, time.Time{})
}

// ledger returns the ledger's rows. Errors from the layers inside the timed
// calls are not checked there: the fixture was built through the same calls,
// checked, moments before.
func ledger(z ledgerSize, seed uint64, outDir string) (map[string]float64, error) {
	m := map[string]float64{}
	par := runtime.GOMAXPROCS(0)
	r := rng(seed)
	order := make([]int, z.objects)
	for i := range order {
		order[i] = i
	}
	r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	ab, _, err := newStore(0)
	if err != nil {
		return nil, err
	}
	fa, err := newKVFixture(z, ab, order, par)
	if err != nil {
		return nil, err
	}
	defer fa.close()

	// The objects the store just allocated, as the layers below kv see them.
	var ids []uint32
	var addrs []mem.Addr
	ab.Runtime.Table.ForEachLive(func(id uint32, e handle.Entry) {
		ids, addrs = append(ids, id), append(addrs, e.Backing)
	})
	if len(ids) < z.objects {
		return nil, fmt.Errorf("ledger: %d live handles for %d objects", len(ids), z.objects)
	}
	r.shuffle(len(ids), func(i, j int) {
		ids[i], ids[j] = ids[j], ids[i]
		addrs[i], addrs[j] = addrs[j], addrs[i]
	})
	n := len(ids)
	bufs := make([][]byte, par)
	for w := range bufs {
		bufs[w] = make([]byte, ledgerValue)
	}
	space, table := ab.Space, ab.Runtime.Table
	m["mem.read_ns"] = z.row(1, func(w, i int) { _ = space.Read(addrs[i%n], bufs[w]) })
	m["mem.read_par_ns"] = z.row(par, func(w, i int) { _ = space.Read(addrs[i%n], bufs[w]) })
	m["handle.translate_ns"] = z.row(1, func(_, i int) { _, _ = table.Translate(handle.Make(ids[i%n], 0)) })
	m["handle.translate_par_ns"] = z.row(par, func(_, i int) { _, _ = table.Translate(handle.Make(ids[i%n], 0)) })
	th := ab.Runtime.NewThread()
	m["rt.pin_unpin_ns"] = z.row(1, func(_, i int) {
		if _, unpin, err := th.Pin(handle.Make(ids[i%n], 0)); err == nil {
			unpin()
		}
	})
	if err := th.Destroy(); err != nil {
		return nil, err
	}
	// Every registered thread (the fixture's sessions) is parked outside
	// instrumented code, as alaskad's are while their sockets are idle.
	for _, s := range fa.sess {
		s.EnterIdle()
	}
	m["rt.barrier_us"] = z.row(1, func(int, int) { ab.Runtime.Barrier(nil, func(*rt.BarrierScope) {}) }) / 1e3
	for _, s := range fa.sess {
		s.ExitIdle()
	}
	const spare = 1 << 30 // a handle id nothing else uses
	m["anchorage.alloc_free_ns"] = z.row(1, func(int, int) {
		if a, err := ab.Svc.Alloc(spare, ledgerValue); err == nil {
			_ = ab.Svc.Free(spare, a, ledgerValue)
		}
	})
	m["kv.get_ns.anchorage"] = z.row(1, fa.get)
	m["kv.get_par_ns.anchorage"] = z.row(par, fa.get)
	miss := []byte("k99999999")
	m["kv.get_miss_ns"] = z.row(1, func(w, _ int) { fa.bufs[w], _, _ = fa.store.GetInto(fa.sess[w], miss, fa.bufs[w]) })
	// Writes last: they may move what the rows above addressed directly.
	m["mem.write_ns"] = z.row(1, func(w, i int) { _ = space.Write(addrs[i%n]+valHdr, bufs[w][valHdr:]) })
	m["kv.set_ns.anchorage"] = z.row(1, fa.set)
	m["kv.set_par_ns.anchorage"] = z.row(par, fa.set)

	mb := kv.NewMallocBackend()
	fm, err := newKVFixture(z, mb, order, 1)
	if err != nil {
		return nil, err
	}
	defer fm.close()
	m["kv.get_ns.malloc"] = z.row(1, fm.get)
	m["kv.set_ns.malloc"] = z.row(1, fm.set)
	m["mallocsim.alloc_free_ns"] = z.row(1, func(int, int) {
		if a, err := mb.A.Alloc(ledgerValue); err == nil {
			_ = mb.A.Free(a)
		}
	})

	if m["anchorage.defrag_mib_per_s"], err = defragRate(z); err != nil {
		return nil, err
	}
	if m["wal.logset_ns"], m["wal.fsync_p50_us"], err = walRows(z, outDir); err != nil {
		return nil, err
	}
	return m, nil
}

// defragRate fragments a heap — allocate, free three objects in four — and
// times one stop-the-world DefragPass over it: MiB moved per second.
func defragRate(z ledgerSize) (float64, error) {
	rates := make([]float64, z.defragRuns)
	for i := range rates {
		b, _, err := newStore(0)
		if err != nil {
			return 0, err
		}
		refs := make([]kv.Ref, z.objects)
		for j := range refs {
			if refs[j], err = b.Alloc(ledgerValue); err != nil {
				return 0, err
			}
		}
		for j, ref := range refs {
			if j%4 != 0 {
				if err := b.Free(ref, ledgerValue); err != nil {
					return 0, err
				}
			}
		}
		var moved uint64
		t0 := time.Now()
		b.Runtime.Barrier(nil, func(sc *rt.BarrierScope) { moved = b.Svc.DefragPass(sc, 1<<40) })
		rates[i] = float64(moved) / (1 << 20) / time.Since(t0).Seconds()
	}
	return median(rates), nil
}

// walRows times Log.LogSet with the writer running, waiting for it to drain
// between batches outside the timer so that no record is dropped, and reads
// the fsync thread's only public window.
func walRows(z ledgerSize, outDir string) (logsetNs, fsyncP50us float64, err error) {
	dir := filepath.Join(outDir, fmt.Sprintf("ledger-wal.%d", os.Getpid()))
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, FsyncInterval: time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	if err := l.Start(nil); err != nil {
		return 0, 0, err
	}
	defer l.Close()
	key, value := appendKey(nil, 1), appendValue(nil, 1, 1, ledgerValue)
	now := time.Now()
	per := make([]float64, z.batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < z.batch; i++ {
			l.LogSet(key, value, time.Time{}, now)
		}
		per[b] = float64(time.Since(t0)) / float64(z.batch)
		for deadline := time.Now().Add(ioTimeout); ; {
			st := l.Stats()
			if st.DiskBytes >= st.AppendedBytes {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("ledger: the log's writer did not drain")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if d := l.Stats().DroppedRecords; d > 0 {
		return 0, 0, fmt.Errorf("ledger: the log dropped %d records", d)
	}
	return median(per), float64(l.FsyncLatency().Percentile(50)) / 1e3, nil
}
