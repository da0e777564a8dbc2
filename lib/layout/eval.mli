(** Static evaluation of a placement against an edge-frequency profile.

    Predicts, without running anything, how many layout-sensitive control
    transfers will be {e taken} per the profile — the quantity the mote's
    fetch stage stalls on.  The rules mirror exactly what {!Rewrite}
    emits:

    - branch whose fall-through successor is laid out next: taken as often
      as the taken edge fires;
    - branch whose {e taken} successor is next: condition gets flipped, so
      it is taken as often as the old fall edge fires;
    - branch with neither successor adjacent: branch to the taken target
      plus a bridging jump, so every execution transfers except none —
      taken-edge weight plus fall-edge weight;
    - jump/fall-through edges: free when the destination is adjacent, one
      taken transfer per traversal otherwise. *)

type policy =
  | Not_taken  (** Every taken transfer stalls (the default mote model). *)
  | Btfn
      (** Backward-taken/forward-not-taken: a conditional branch whose
          target lands {e earlier in the layout} is predicted taken, so it
          stalls only when it falls through — and vice versa.
          Unconditional jumps always stall. *)

type report = {
  taken_transfers : float;
      (** Expected stalling transfers under the policy (profile units). *)
  considered : float;  (** Branch executions + surviving jump traversals. *)
  taken_rate : float;  (** taken / considered (0 when nothing executes). *)
  bridge_jumps : int;  (** Bridging jumps the rewrite will add. *)
  size_words : int;  (** Predicted flash words after rewriting. *)
}

val evaluate : ?policy:policy -> Cfgir.Freq.t -> Placement.t -> report

val taken_transfers : ?policy:policy -> Cfgir.Freq.t -> Placement.t -> float
(** Shorthand for [(evaluate f p).taken_transfers]. *)

(** {1 Compiled scoring}

    For searches that score many candidate placements of one profile. *)

type scorer
(** A profile's terminators and edge weights, read once.  Holds scratch
    space: use one scorer from one domain at a time. *)

val compile : ?policy:policy -> Cfgir.Freq.t -> scorer

val score : scorer -> Placement.t -> float
(** [score (compile ?policy f) p] is [taken_transfers ?policy f p], bit for
    bit (the same additions in the same order), for every valid placement
    [p].  It does not validate [p]: a permutation whose first element is
    not the entry block is scored as given.
    @raise Invalid_argument if [p] has the wrong length. *)
