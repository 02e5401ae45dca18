package constructs.sealed;

/** Sealed, non-sealed and final classes and sealed interfaces (JLS 8.1.1.2, 9.1.1.4). */
public sealed interface SealedShape permits Circle, Polygon {
    double area();
}

final class Circle implements SealedShape {
    private final double radius;

    Circle(double radius) {
        this.radius = radius;
    }

    public double area() {
        return Math.PI * radius * radius;
    }
}

sealed abstract class Polygon implements SealedShape permits Square, Triangle {
    abstract int sides();
}

final class Square extends Polygon {
    int sides() { return 4; }

    public double area() { return 1.0; }
}

non-sealed class Triangle extends Polygon {
    int sides() { return 3; }

    public double area() { return 0.5; }

    sealed interface Corner permits Acute { }

    non-sealed static class Acute implements Corner { }
}
