package journal

// Compact rewrites each shard keeping only what recovery needs: for a
// finished instance (a KindWDone anywhere in the shard) nothing at all;
// for every other (composite, state, instance) the records from its
// newest snapshot/passivate onward (or all of them when it never
// snapshotted). The passive index is rebuilt at the new offsets.
func (j *Journal) Compact() error { return j.eachShard((*shard).compact) }
