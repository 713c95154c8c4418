package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPageAccessors(t *testing.T) {
	var p Page
	p.PutU16(0, 0xBEEF)
	p.PutU32(2, 0xDEADBEEF)
	p.PutU64(6, 0x1122334455667788)
	if p.U16(0) != 0xBEEF || p.U32(2) != 0xDEADBEEF || p.U64(6) != 0x1122334455667788 {
		t.Fatal("page accessors broken")
	}
}

func testDiskManager(t *testing.T, d DiskManager) {
	t.Helper()
	id0, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if id0 == id1 {
		t.Fatal("duplicate page ids")
	}
	buf := make([]byte, PageSize)
	buf[0], buf[PageSize-1] = 0xAA, 0x55
	if err := d.WritePage(id1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA || got[PageSize-1] != 0x55 {
		t.Fatal("readback mismatch")
	}
	if err := d.ReadPage(PageID(99), got); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	if err := d.WritePage(PageID(99), got); err == nil {
		t.Fatal("write of unallocated page must fail")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if d.NumPages() != 2 {
		t.Fatalf("numpages: %d", d.NumPages())
	}
}

func TestMemDiskManager(t *testing.T) {
	testDiskManager(t, NewMemDiskManager(0))
}

func TestFileDiskManager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := NewFileDiskManager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	testDiskManager(t, d)
}

func TestSimulatedLatency(t *testing.T) {
	d := NewMemDiskManager(2 * time.Millisecond)
	id, _ := d.AllocatePage()
	buf := make([]byte, PageSize)
	start := time.Now()
	_ = d.WritePage(id, buf)
	_ = d.ReadPage(id, buf)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("latency not applied")
	}
	st := d.Stats()
	if st.ReadDelay == 0 || st.WriteDelay == 0 {
		t.Fatalf("delay accounting: %+v", st)
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	disk := NewMemDiskManager(0)
	bp := NewBufferPool(disk, 8)
	pg, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID()
	pg.Data[17] = 0x42
	bp.Unpin(pg, true)

	pg2, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Data[17] != 0x42 {
		t.Fatal("cached content lost")
	}
	bp.Unpin(pg2, false)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := bp.Fetch(InvalidPageID); err == nil {
		t.Fatal("fetch of invalid page must fail")
	}
}

func TestBufferPoolEvictionWriteback(t *testing.T) {
	disk := NewMemDiskManager(0)
	bp := NewBufferPool(disk, 8)
	var ids []PageID
	for i := 0; i < 32; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i)
		ids = append(ids, pg.ID())
		bp.Unpin(pg, true)
	}
	// All 32 pages must read back correctly despite only 8 frames.
	for i, id := range ids {
		pg, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if pg.Data[0] != byte(i) {
			t.Fatalf("page %d content lost: %d", id, pg.Data[0])
		}
		bp.Unpin(pg, false)
	}
	st := bp.Stats()
	if st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("expected evictions and flushes: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("expected misses: %+v", st)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	disk := NewMemDiskManager(0)
	bp := NewBufferPool(disk, 8)
	var pinned []*Page
	for i := 0; i < 8; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pg)
	}
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("exhausted pool must refuse")
	}
	if bp.PinnedPages() != 8 {
		t.Fatalf("pinned count: %d", bp.PinnedPages())
	}
	// Releasing one pin frees a frame.
	bp.Unpin(pinned[0], false)
	// The clock needs the refbit cleared before eviction; two chances are
	// built into victimLocked, so this must now succeed.
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	disk := NewMemDiskManager(0)
	bp := NewBufferPool(disk, 8)
	pg, _ := bp.NewPage()
	pg.Data[0] = 0x77
	id := pg.ID()
	bp.Unpin(pg, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := disk.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x77 {
		t.Fatal("flush did not persist")
	}
}

func TestBufferPoolMinimumCapacity(t *testing.T) {
	bp := NewBufferPool(NewMemDiskManager(0), 1)
	if bp.Capacity() < 8 {
		t.Fatalf("capacity floor: %d", bp.Capacity())
	}
}

// TestQuickPoolPersistence: any sequence of page writes through a tiny
// pool reads back intact (write-back + eviction correctness).
func TestQuickPoolPersistence(t *testing.T) {
	fn := func(writes []byte, seed int64) bool {
		disk := NewMemDiskManager(0)
		bp := NewBufferPool(disk, 8)
		rng := rand.New(rand.NewSource(seed))
		const nPages = 24
		var ids []PageID
		model := make(map[PageID]byte)
		for i := 0; i < nPages; i++ {
			pg, err := bp.NewPage()
			if err != nil {
				return false
			}
			ids = append(ids, pg.ID())
			model[pg.ID()] = 0
			bp.Unpin(pg, true)
		}
		for _, w := range writes {
			id := ids[rng.Intn(nPages)]
			pg, err := bp.Fetch(id)
			if err != nil {
				return false
			}
			pg.Data[100] = w
			model[id] = w
			bp.Unpin(pg, true)
		}
		for id, want := range model {
			pg, err := bp.Fetch(id)
			if err != nil {
				return false
			}
			ok := pg.Data[100] == want
			bp.Unpin(pg, false)
			if !ok {
				return false
			}
		}
		return bp.PinnedPages() == 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// gatedDisk blocks WritePage of one page id until the gate channel is
// closed, holding a victim write-back in flight so tests can race fetches
// against it deterministically.
type gatedDisk struct {
	DiskManager
	gateID  PageID
	gate    chan struct{} // closed to release the blocked write
	entered chan struct{} // signaled when a write reaches the gate
}

func (d *gatedDisk) WritePage(id PageID, data []byte) error {
	if id == d.gateID {
		d.entered <- struct{}{}
		<-d.gate
	}
	return d.DiskManager.WritePage(id, data)
}

// TestBufferPoolFetchWaitsForVictimFlush: a fetch of a page whose dirty
// eviction write-back is still in flight must park on the flush fence, not
// race the write with a disk read — the racy read returns the stale
// pre-flush bytes and silently loses the victim's updates.
func TestBufferPoolFetchWaitsForVictimFlush(t *testing.T) {
	gd := &gatedDisk{
		DiskManager: NewMemDiskManager(0),
		gateID:      InvalidPageID,
		gate:        make(chan struct{}),
		entered:     make(chan struct{}, 4),
	}
	bp := NewBufferPool(gd, 8)
	var ids []PageID
	for i := 0; i < 8; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = 0xAB
		ids = append(ids, pg.ID())
		bp.Unpin(pg, true)
	}
	victimID := ids[0]
	gd.gateID = victimID

	// Trigger an eviction: the clock picks frame 0 (the victim), detaches it
	// dirty, and its write-back parks on the gate with the latch released.
	newDone := make(chan error, 1)
	go func() {
		pg, err := bp.NewPage()
		if err == nil {
			bp.Unpin(pg, false)
		}
		newDone <- err
	}()
	<-gd.entered

	got := make(chan byte, 1)
	fetchErr := make(chan error, 1)
	go func() {
		pg, err := bp.Fetch(victimID)
		if err != nil {
			fetchErr <- err
			return
		}
		b := pg.Data[0]
		bp.Unpin(pg, false)
		got <- b
	}()
	// The fetch must not complete while the flush is in flight; without the
	// fence it reads the zeroed disk copy and publishes it as valid.
	select {
	case b := <-got:
		t.Fatalf("fetch completed mid-flush with content %#x", b)
	case err := <-fetchErr:
		t.Fatalf("fetch failed mid-flush: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gd.gate)
	select {
	case b := <-got:
		if b != 0xAB {
			t.Fatalf("victim updates lost: fetched %#x, want 0xab", b)
		}
	case err := <-fetchErr:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("fetch never completed after flush release")
	}
	if err := <-newDone; err != nil {
		t.Fatal(err)
	}
}

// flakyDisk fails writes of one page id.
type flakyDisk struct {
	DiskManager
	failID PageID
}

var errInjectedWrite = errors.New("injected write failure")

func (d *flakyDisk) WritePage(id PageID, data []byte) error {
	if id == d.failID {
		return errInjectedWrite
	}
	return d.DiskManager.WritePage(id, data)
}

// TestBufferPoolVictimFlushFailureKeepsPage: when a detached victim's
// write-back fails, the victim must be reinstalled (still dirty) rather
// than dropped — the frame copy is the only one holding its updates.
func TestBufferPoolVictimFlushFailureKeepsPage(t *testing.T) {
	for _, mode := range []string{"fetch", "newpage"} {
		t.Run(mode, func(t *testing.T) {
			fd := &flakyDisk{DiskManager: NewMemDiskManager(0), failID: InvalidPageID}
			bp := NewBufferPool(fd, 8)
			var ids []PageID
			for i := 0; i < 8; i++ {
				pg, err := bp.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				pg.Data[0] = 0xCD
				ids = append(ids, pg.ID())
				bp.Unpin(pg, true)
			}
			fd.failID = ids[0]

			var evictErr error
			if mode == "fetch" {
				extra, err := fd.DiskManager.AllocatePage()
				if err != nil {
					t.Fatal(err)
				}
				_, evictErr = bp.Fetch(extra)
			} else {
				_, evictErr = bp.NewPage()
			}
			if !errors.Is(evictErr, errInjectedWrite) {
				t.Fatalf("eviction over failing flush: err=%v, want injected failure", evictErr)
			}
			fd.failID = InvalidPageID

			// The victim must still be resident with its content intact; a
			// dropped victim would re-read the zeroed disk copy here.
			pg, err := bp.Fetch(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if pg.Data[0] != 0xCD {
				t.Fatalf("victim content lost after failed flush: %#x", pg.Data[0])
			}
			bp.Unpin(pg, false)
			if bp.PinnedPages() != 0 {
				t.Fatalf("pin leak after failed eviction: %d", bp.PinnedPages())
			}
		})
	}
}

func TestFileDiskPersistAcrossManagers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	d, err := NewFileDiskManager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := d.AllocatePage()
	buf := make([]byte, PageSize)
	copy(buf, "hello disk")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// NewFileDiskManager truncates; verify the file contains data first by
	// reopening read-style through a fresh manager after manual alloc.
	d2, err := NewFileDiskManager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 0 {
		t.Fatal("fresh manager starts empty (truncate semantics)")
	}
}

// TestDiscardRecyclesPageIDs: NewPage hands out ids Discard released before
// growing the disk, zeroed; a pinned page's id is never recycled.
func TestDiscardRecyclesPageIDs(t *testing.T) {
	disk := NewMemDiskManager(0)
	bp := NewBufferPool(disk, 8)
	ids := map[PageID]bool{}
	for i := 0; i < 4; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = 0xEE
		ids[pg.ID()] = true
		bp.Unpin(pg, true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id := range ids {
		bp.Discard(id)
	}
	for i := 0; i < 4; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ids[pg.ID()] {
			t.Fatalf("NewPage allocated %d instead of a discarded id", pg.ID())
		}
		if pg.Data[0] != 0 {
			t.Fatalf("recycled page %d carries stale content %#x", pg.ID(), pg.Data[0])
		}
		bp.Unpin(pg, true)
	}
	if n := disk.NumPages(); n != 4 {
		t.Fatalf("disk grew to %d pages, want 4", n)
	}

	pinned, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Discard(pinned.ID())
	pg, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID() == pinned.ID() {
		t.Fatal("a pinned page's id was recycled")
	}
	bp.Unpin(pg, false)
	bp.Unpin(pinned, false)
}

// TestDiscardSkipsFencedPage: an id whose write-back is in flight is not
// recycled — the late write would land on top of the id's next content.
func TestDiscardSkipsFencedPage(t *testing.T) {
	gd := &gatedDisk{
		DiskManager: NewMemDiskManager(0),
		gateID:      InvalidPageID,
		gate:        make(chan struct{}),
		entered:     make(chan struct{}, 4),
	}
	bp := NewBufferPool(gd, 8)
	var ids []PageID
	for i := 0; i < 8; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID())
		bp.Unpin(pg, true)
	}
	victimID := ids[0]
	gd.gateID = victimID
	newDone := make(chan error, 1)
	go func() {
		pg, err := bp.NewPage()
		if err == nil {
			bp.Unpin(pg, false)
		}
		newDone <- err
	}()
	<-gd.entered // the victim's flush is parked: its id is fenced
	bp.Discard(victimID)
	close(gd.gate)
	if err := <-newDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if pg.ID() == victimID {
			t.Fatal("an id fenced mid-flush was recycled")
		}
		bp.Unpin(pg, false)
	}
}

// TestDiscardConcurrentWithEviction truncates page chains while other
// goroutines churn a pool too small for everyone, so discards race dirty
// evictions and their write-backs (run under -race). Every page must read
// back exactly what its current owner last wrote, and recycling must keep
// the disk from growing with every truncate.
func TestDiscardConcurrentWithEviction(t *testing.T) {
	disk := NewMemDiskManager(5 * time.Microsecond)
	bp := NewBufferPool(disk, 16)
	const readers, owned, rounds, chain = 2, 8, 300, 6

	stamp := func(pg *Page, v uint32) {
		pg.PutU32(0, uint32(pg.ID()))
		pg.PutU32(4, v)
	}
	check := func(pg *Page, v uint32) error {
		if id, got := pg.U32(0), pg.U32(4); id != uint32(pg.ID()) || got != v {
			return fmt.Errorf("page %d holds (%d, %d), want (%d, %d)", pg.ID(), id, got, pg.ID(), v)
		}
		return nil
	}

	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		var mine []PageID
		for i := 0; i < owned; i++ {
			pg, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			stamp(pg, 0)
			mine = append(mine, pg.ID())
			bp.Unpin(pg, true)
		}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			vers := make([]uint32, owned)
			for i := 0; i < rounds*chain; i++ {
				k := rng.Intn(owned)
				pg, err := bp.Fetch(mine[k])
				if err != nil {
					errs <- err
					return
				}
				err = check(pg, vers[k])
				vers[k]++
				stamp(pg, vers[k])
				bp.Unpin(pg, true)
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := uint32(1); gen <= rounds; gen++ {
			var ids []PageID
			for i := 0; i < chain; i++ {
				pg, err := bp.NewPage()
				if err != nil {
					errs <- err
					return
				}
				if pg.U32(0) != 0 || pg.U32(4) != 0 {
					errs <- fmt.Errorf("NewPage %d is not zeroed", pg.ID())
					return
				}
				stamp(pg, gen)
				ids = append(ids, pg.ID())
				bp.Unpin(pg, true)
			}
			for _, id := range ids {
				pg, err := bp.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				err = check(pg, gen)
				bp.Unpin(pg, false)
				if err != nil {
					errs <- err
					return
				}
			}
			for _, id := range ids {
				bp.Discard(id)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("pin leak: %d", bp.PinnedPages())
	}
	// Without recycling the truncater alone would allocate rounds*chain.
	if n := disk.NumPages(); n > readers*owned+rounds*chain/2 {
		t.Fatalf("disk grew to %d pages: truncated pages are not being reused", n)
	}
}
