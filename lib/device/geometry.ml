type shape = Square | Cross | Junctionless

type t = {
  shape : shape;
  device_x : float;
  device_y : float;
  device_z : float;
  electrode_w : float;
  electrode_d : float;
  tox : float;
  gate_extent : float;
  channel_width : float;
  l_adjacent : float;
  l_opposite : float;
  junction_area : float;
  wire_cross_section : float;
}

let nm x = x *. 1e-9

let square =
  {
    shape = Square;
    device_x = nm 2400.0;
    device_y = nm 2400.0;
    device_z = nm 730.0;
    electrode_w = nm 700.0;
    electrode_d = nm 200.0;
    tox = nm 30.0;
    gate_extent = nm 1000.0;
    channel_width = nm 700.0;
    (* effective channel lengths the paper extracts: Type A / Type B *)
    l_adjacent = 0.35e-6;
    l_opposite = 0.5e-6;
    junction_area = nm 700.0 *. nm 200.0;
    wire_cross_section = 0.0;
  }

let cross =
  {
    square with
    shape = Cross;
    gate_extent = nm 200.0;
    (* the cross gate narrows the channels to the arm width and makes the
       six paths nearly equal in length *)
    channel_width = nm 200.0;
    l_adjacent = 0.40e-6;
    l_opposite = 0.42e-6;
  }

let junctionless =
  {
    shape = Junctionless;
    device_x = nm 24.0;
    device_y = nm 24.0;
    device_z = nm 8.0;
    electrode_w = nm 24.0;
    electrode_d = nm 2.0;
    tox = nm 3.0;
    gate_extent = nm 4.0;
    channel_width = nm 2.0;
    l_adjacent = nm 20.0;
    l_opposite = nm 20.0;
    junction_area = nm 24.0 *. nm 2.0;
    wire_cross_section = nm 2.0 *. nm 2.0;
  }

let shape_name = function Square -> "square" | Cross -> "cross" | Junctionless -> "junctionless"

let is_depletion g = g.shape = Junctionless
