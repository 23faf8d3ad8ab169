(** Cooperative cancellation token.

    A token is a one-way latch shared between whoever submitted a session
    and the scheduler running it: {!cancel} flips it, the scheduler polls
    it before every quantum grant.  The flag is an [Atomic.t] so a token
    may be cancelled from one thread or domain while a multi-domain
    [Scheduler.drain] polls it from another. *)

type t

val create : unit -> t
(** A fresh, uncancelled token. *)

val cancel : t -> unit
(** Flip the latch.  Idempotent; never un-flips. *)

val cancelled : t -> bool
(** Whether {!cancel} has been called. *)
