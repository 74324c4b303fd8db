type t =
  | Update of { prefix : Net.Prefix.t; attr : Net.Attr.t }
  | Withdraw of { prefix : Net.Prefix.t }
  | Keepalive
  | Eor

let prefix = function
  | Update { prefix; _ } | Withdraw { prefix } -> Some prefix
  | Keepalive | Eor -> None

let equal a b =
  match (a, b) with
  | Update a, Update b ->
    Net.Prefix.equal a.prefix b.prefix && Net.Attr.equal a.attr b.attr
  | Withdraw a, Withdraw b -> Net.Prefix.equal a.prefix b.prefix
  | Keepalive, Keepalive | Eor, Eor -> true
  | (Update _ | Withdraw _ | Keepalive | Eor), _ -> false

let kind_label = function
  | Update _ -> "update"
  | Withdraw _ -> "withdraw"
  | Keepalive -> "keepalive"
  | Eor -> "eor"

let pp ppf = function
  | Update { prefix; attr } ->
    Format.fprintf ppf "UPDATE %a %a" Net.Prefix.pp prefix Net.Attr.pp attr
  | Withdraw { prefix } -> Format.fprintf ppf "WITHDRAW %a" Net.Prefix.pp prefix
  | Keepalive -> Format.fprintf ppf "KEEPALIVE"
  | Eor -> Format.fprintf ppf "EOR"
