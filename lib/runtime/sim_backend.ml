module Sim = Dpu_engine.Sim
module Datagram = Dpu_net.Datagram

let clock ?group sim =
  let sched =
    match group with
    | None -> fun ~delay fn -> Sim.schedule sim ~delay fn
    | Some g -> fun ~delay fn -> Sim.schedule_group sim ~group:g ~delay fn
  in
  {
    Clock.now = (fun () -> Sim.now sim);
    defer = (fun ~delay fn -> ignore (sched ~delay fn : Sim.handle));
    schedule_impl =
      (fun ~delay fn ->
        let h = sched ~delay fn in
        Clock.make_timer ~cancel:(fun () -> Sim.cancel sim h));
    every_impl =
      (fun ~period fn ->
        let h = Sim.every sim ~period fn in
        Clock.make_timer ~cancel:(fun () -> Sim.cancel sim h));
  }

let transport net =
  let module D = Datagram in
  {
    Transport.n = D.size net;
    send = (fun ~src ~dst ~size_bytes payload -> D.send net ~src ~dst ~size_bytes payload);
    set_handler = (fun ~node f -> D.set_handler net ~node f);
    counters =
      (fun () ->
        let c = D.counters net in
        {
          Transport.sent = c.D.sent;
          delivered = c.D.delivered;
          dropped = c.D.lost + c.D.blocked;
          bytes = c.D.bytes;
        });
    batches = (fun () -> Transport.zero_batches);
  }

let runtime ?group ?rng sim net =
  let rng = match rng with Some r -> r | None -> Sim.rng sim in
  Runtime.create ~clock:(clock ?group sim) ~transport:(transport net) ~rng
