package store

import "testing"

func TestStore(t *testing.T) {
	s := New()
	s.Add("a")
	if s.Len() != 1 || MaxItems != 16 {
		t.Fatal("store")
	}
	helper()
}
