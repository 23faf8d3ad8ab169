(** The unified progress record of every driver.

    Every driver ([Online], [Ripple], [Index_ripple]) reports the same
    three quantities in this one shape: work performed, work that
    contributed to the estimate, and the current estimate with its
    confidence half-width.  [Progress.t] is
    carried by every driver's [history] and by {!Event.Report} ticks.

    What the fields count, per driver:

    - [walks]: driver work units — walks (wander join), rounds (ripple),
      sampled start tuples (index ripple).
    - [successes]: contributing units — successful walks, qualifying
      join combinations (ripple), completions (index ripple).
    - [tuples]: tuples retrieved so far; 0 where the driver does not
      track it. *)

type t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}
