(** On-disk content-addressed cache: {!Engine.Fingerprint} → marshalled
    value, one file per entry, surviving process restarts. This is the
    persistent tier behind {!Engine.Cache} (plug it in with {!persist}) —
    the piece that turns the sweep engine's ~370x cached-re-sweep advantage
    into the steady state across daemon restarts.

    {2 Format and crash safety}

    An entry file [<fp-hex>.ent] is one header line — magic, format
    version, writing OCaml version, fingerprint, payload length, MD5 —

    {v cpsrisk-store 4 <ocaml-version> <fp-hex> <payload-len> <md5-hex> v}

    then the marshalled payload (format v4: job models projected on the
    backend's [#show] predicates, with stats records whose grounder
    counters include [decided]). Readers verify all six fields. An entry
    of another format version or written by another OCaml runtime is
    {e stale}: a clean miss, deleted and counted in [misses] only. Any
    other mismatch (bad magic, fingerprint mismatch, bad length,
    truncation, trailing bytes, checksum failure, a payload that will not
    unmarshal) is damage: the entry is deleted and counted in [corrupt]
    as well as [misses]. Either way it is recomputed, never misread.

    Writes go to a [tmp-]-prefixed file in the same directory and are
    published with an atomic [rename], so concurrent readers — including
    readers in other processes — observe either the old entry or the
    complete new one. A writer killed mid-write leaves only [tmp-] debris,
    which {!open_} sweeps away.

    The entry files are the store's only on-disk state: there is no
    separate index. An entry's modification time is its recency — set
    when it is published and touched again by every verified hit — so
    the LRU order survives a restart, and a crash too, with nothing else
    to write.

    {2 Eviction}

    With [max_bytes] set, storing an entry evicts least-recently-used
    entries (by a logical access clock that {!open_} seeds from the entry
    mtimes) until the total is back under the bound. A value larger than
    the whole bound is not admitted at all.

    {2 Concurrency}

    One handle may be shared across domains (a mutex guards the index).
    Several handles — even in different processes — may point at the same
    directory: rename-publishing keeps readers safe against a live writer,
    and a handle that finds an entry it did not write adopts it into its
    index. Two stores of {e different} value types must not share a
    directory; the header guards the format, not the payload type. *)

type 'a t

type stats = {
  mutable hits : int;  (** entries found, verified and unmarshalled *)
  mutable misses : int;  (** absent entries, plus stale and corrupt ones *)
  mutable stored : int;  (** successful writes *)
  mutable evicted : int;  (** entries removed by the size bound *)
  mutable corrupt : int;  (** damaged entries rejected and deleted *)
}

val open_ : ?max_bytes:int -> string -> 'a t
(** Open (creating if needed) the store rooted at the given directory:
    delete leftover [tmp-] files (and the LRU snapshot file that earlier
    versions kept beside the entries), then index the entry files on disk,
    oldest modification time first (ties by fingerprint), as the LRU
    order. [max_bytes] bounds the total entry bytes; omitted means
    unbounded. *)

val find : 'a t -> Engine.Fingerprint.t -> 'a option
(** Read and verify an entry. [None] on a miss, on a stale entry (deleted)
    {e and} on a corrupt entry (deleted and counted in [stats.corrupt]).
    A hit refreshes the entry's LRU stamp and touches its file's mtime,
    so the refresh survives a restart. *)

val store : 'a t -> Engine.Fingerprint.t -> 'a -> unit
(** Atomically publish an entry (tmp file + rename), then evict down to
    [max_bytes]. Nothing else is written. Write failures (full disk,
    permissions) leave the store unchanged. *)

val entries : 'a t -> int
val total_bytes : 'a t -> int
(** Indexed entries / their total on-disk bytes. *)

val max_bytes : 'a t -> int option
val dir : 'a t -> string

val stats : 'a t -> stats
(** Snapshot of the lifetime counters of this handle. *)

val stats_to_json : stats -> Json.t

val persist : ?rehydrate:('a -> 'a) -> 'a t -> 'a Engine.Cache.persist
(** Adapter: use this store as the persistent tier of an
    {!Engine.Cache}. The [store] direction swallows exceptions — a broken
    disk degrades the cache to memory-only instead of failing sweeps.

    [rehydrate] is applied to every loaded value. Unmarshalling bypasses
    the smart constructors of hash-consed types ({!Asp.Term.t}): loaded
    terms are structurally correct but not interned, so they miss the
    pointer-equality fast paths and O(1) hashes until re-interned. Pass
    the value's re-interning pass (e.g. {!Asp.Model.rehydrate} over each
    model) to restore full sharing on the promotion path. *)
