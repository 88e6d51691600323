package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" evicts "b".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a evicted wrongly: %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestRemove is the scoped discipline: under a constant epoch a writer
// removes what it changed and the rest stays cached, in its use order.
func TestRemove(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if !c.Remove("b") || c.Remove("b") || c.Remove("nope") {
		t.Fatal("Remove must report whether the key was cached")
	}
	if _, ok := c.Get("b"); ok || c.Len() != 2 {
		t.Fatalf("b survived Remove: Len = %d", c.Len())
	}
	// The use list is intact: "a" is least recent and goes first.
	c.Put("d", 4)
	c.Put("e", 5)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction after a Remove")
	}
	for k, want := range map[string]int{"c": 3, "d": 4, "e": 5} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("%s = %d, %v", k, v, ok)
		}
	}
}

func TestRemoveFunc(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 8; i++ {
		c.Put(i, i*i)
	}
	if n := c.RemoveFunc(func(k, v int) bool { return k%2 == 1 && v == k*k }); n != 4 {
		t.Fatalf("removed %d, want the 4 odd keys", n)
	}
	if n := c.RemoveFunc(func(int, int) bool { return false }); n != 0 || c.Len() != 4 {
		t.Fatalf("a false predicate removed %d; Len = %d", n, c.Len())
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(i); ok != (i%2 == 0) {
			t.Fatalf("key %d cached = %v", i, ok)
		}
	}
	// Head, tail and everything between can go; the cache still works.
	if n := c.RemoveFunc(func(int, int) bool { return true }); n != 4 || c.Len() != 0 {
		t.Fatalf("removed %d, Len = %d", n, c.Len())
	}
	c.Put(9, 81)
	if v, ok := c.Get(9); !ok || v != 81 {
		t.Fatalf("cache unusable after removing everything: %d, %v", v, ok)
	}
}

func TestEpochFlush(t *testing.T) {
	c := NewVersioned[string, int](4)
	c.Put("a", 1, 1)
	// A newer epoch flushes everything and misses.
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("stale entry served at newer epoch")
	}
	if c.Len() != 0 {
		t.Fatalf("cache not flushed: Len = %d", c.Len())
	}
	// A stale writer (epoch already passed) must not pollute the cache.
	c.Put("b", 1, 2)
	if _, ok := c.Get("b", 2); ok {
		t.Fatal("stale Put was stored")
	}
	// A stale reader misses without flushing newer entries.
	c.Put("c", 2, 3)
	if _, ok := c.Get("c", 1); ok {
		t.Fatal("newer entry served to stale reader")
	}
	if v, ok := c.Get("c", 2); !ok || v != 3 {
		t.Fatalf("current entry lost: %d, %v", v, ok)
	}
}

// TestVersionedEvicts: within one epoch a versioned cache is the same LRU.
func TestVersionedEvicts(t *testing.T) {
	c := NewVersioned[string, int](2)
	c.Put("a", 3, 1)
	c.Put("b", 3, 2)
	c.Get("a", 3)
	c.Put("c", 3, 3)
	if _, ok := c.Get("b", 3); ok || c.Len() != 2 {
		t.Fatalf("least recently used entry survived: Len = %d", c.Len())
	}
	if v, ok := c.Get("a", 3); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatalf("minimum capacity broken: %d, %v", v, ok)
	}
}

func TestConcurrent(t *testing.T) {
	c := New[string, int](32)
	v := NewVersioned[string, int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				epoch := uint64(i / 100)
				v.Put(key, epoch, i)
				v.Get(key, epoch)
				c.Put(key, i)
				c.Get(key)
				if i%7 == 0 {
					c.Remove(key)
					c.RemoveFunc(func(_ string, v int) bool { return v%11 == 0 })
				}
			}
		}(w)
	}
	wg.Wait()
}
