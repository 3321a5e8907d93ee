package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func gen(seq int) *Generation {
	return &Generation{Seq: seq, Hash: fmt.Sprintf("h%d", seq), Time: time.Unix(int64(seq), 0)}
}

func TestHistoryRetainsLastN(t *testing.T) {
	h := NewHistory(3)
	if len(h.List()) != 0 {
		t.Fatal("empty history lists a generation")
	}
	for i := 0; i <= 5; i++ {
		h.Add(gen(i))
	}
	if g, ok := h.Get(5); !ok || g.Hash != "h5" {
		t.Fatalf("newest generation = %+v, %v", g, ok)
	}
	if _, ok := h.Get(2); ok {
		t.Fatal("evicted generation still retained")
	}
	if g, ok := h.Get(3); !ok || g.Hash != "h3" {
		t.Fatalf("oldest retained generation = %+v, %v", g, ok)
	}
	list := h.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d", len(list))
	}
	// Newest first, only the newest current.
	for i, info := range list {
		if want := 5 - i; info.Seq != want {
			t.Errorf("List[%d].Seq = %d, want %d", i, info.Seq, want)
		}
		if info.Current != (i == 0) {
			t.Errorf("List[%d].Current = %v", i, info.Current)
		}
	}
}

func TestHistoryRollbackCurrent(t *testing.T) {
	h := NewHistory(4)
	for i := 1; i <= 3; i++ {
		h.Add(gen(i))
	}
	h.SetCurrent(1)
	var current []int
	for _, info := range h.List() {
		if info.Current {
			current = append(current, info.Seq)
		}
	}
	if len(current) != 1 || current[0] != 1 {
		t.Fatalf("current after rollback = %v", current)
	}
	// A new generation becomes current again.
	h.Add(gen(4))
	if list := h.List(); list[0].Seq != 4 || !list[0].Current {
		t.Fatal("new generation not current after rollback")
	}
}

func TestHistoryMinimumCapacity(t *testing.T) {
	h := NewHistory(0)
	h.Add(gen(1))
	h.Add(gen(2))
	if list := h.List(); len(list) != 1 || list[0].Seq != 2 {
		t.Fatalf("List = %+v", list)
	}
}

func TestHistoryConcurrent(t *testing.T) {
	h := NewHistory(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h.Add(gen(w*100 + i))
				h.List()
				h.Get(w * 100)
			}
		}()
	}
	wg.Wait()
	if len(h.List()) != 8 {
		t.Fatalf("List len = %d", len(h.List()))
	}
}
