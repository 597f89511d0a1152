(* Prints one line per corpus scenario: its name and the MD5 hex of the
   run's replay signature at seed 3. [dune runtest] diffs the output
   against test/golden/corpus.txt, so any change to what a corpus run
   observes (sends, deliveries, switches, fault and wire counters)
   fails tier-1. *)

module W = Dpu_workload

let () =
  List.iter
    (fun (sc : W.Corpus.t) ->
      let signature =
        W.Run.signature ~name:sc.W.Corpus.name (W.Run.exec (W.Corpus.spec ~seed:3 sc))
      in
      Printf.printf "%s %s\n" sc.W.Corpus.name (Digest.to_hex (Digest.string signature)))
    W.Corpus.all
