(** O1-U — {!Sampling_o1} carrying Alg 3's freshness clocks: acquires whose
    lock holds nothing fresh and releases whose thread communicated nothing
    new are skipped, exactly as in {!Sampling_uclock}.  The skips never
    change clock contents, so the race report is byte-identical to O1's. *)

include Sampling_o1.S
