package main

import "testing"

func TestBacklogGrew(t *testing.T) {
	for _, c := range []struct {
		polls []int64
		grew  bool
	}{
		{nil, false},
		{[]int64{0, 0, 0, 0, 0, 0}, false},
		// A burst late in the phase that drains again is not growth.
		{[]int64{0, 1, 0, 0, 2, 0, 0, 0, 1, 8, 11, 14, 11, 0, 0, 1, 0, 0}, false},
		// Steady growth is.
		{[]int64{1, 2, 3, 5, 8, 9, 12, 15, 20, 24, 30, 35}, true},
		{[]int64{0, 0, 0, 0, 3, 4, 5, 6, 6, 7, 7, 8}, true},
	} {
		if got := backlogGrew(c.polls); got != c.grew {
			t.Errorf("%v: grew=%v, want %v", c.polls, got, c.grew)
		}
	}
}
