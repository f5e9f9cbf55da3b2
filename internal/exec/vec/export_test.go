package vec

// Get exposes the scratch's buffer allocator to the package's tests.
func (sc *Scratch) Get(n int) []int32 { return sc.get(n) }

// Put hands a buffer back the way the evaluators do.
func (sc *Scratch) Put(b []int32) { sc.put(b) }
