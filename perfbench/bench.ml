(* Benchmark entry point:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
   Prints a diagnostics line, then the result object as the last line. *)

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "present | ledger | clearing");
      ("--seed", Arg.Set_string seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal timed seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let open Perfbench in
  match Harness_run.find !workload with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some _ when !seed = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "need --seed, --seconds >= 1 and --trace 0|1";
      exit 2
  | Some spec ->
      let o = Harness_run.run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      List.iter (fun v -> prerr_endline ("violation: " ^ v)) o.Harness_run.violations;
      print_endline ("diagnostics " ^ Harness_run.diag_json o);
      print_endline (Harness_run.result_json o);
      if not o.Harness_run.correct then exit 1
